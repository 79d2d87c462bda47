package blockdev

import (
	"fmt"
	"strings"
)

// Epoch model for bounded-reordering crash states (§4.4 limitation 2: B3
// "does not simulate a crash in the middle of a file-system operation and it
// does not re-order IO requests"). The recorded IO stream is partitioned
// into epochs at write barriers; writes within one epoch are in flight
// together and may reach the disk in any order, writes in different epochs
// never reorder across the barrier between them.
//
// Two record kinds are barriers:
//
//   - RecFlush: an explicit cache flush issued by the file system.
//   - RecCheckpoint: the completion of a persistence operation. Writes
//     before a checkpoint are durable by definition — the persistence call
//     returned — even when the file system omitted the explicit flush.
//     Treating only RecFlush as a barrier lets a write be "reordered" past
//     the very checkpoint that persisted it, constructing states a real
//     device can never expose and producing unsound broken verdicts.

// Epoch is one barrier-delimited segment of a recorded IO stream.
type Epoch struct {
	// Index is the epoch's 0-based position in the partition.
	Index int
	// Writes holds the epoch's RecWrite records in issue order.
	Writes []Record
	// Closed reports whether a barrier ended the epoch. The final epoch of
	// a stream may be open: a tail of writes still in flight at the end of
	// the workload.
	Closed bool
	// Checkpoints is the epoch's persistence interval: the number of
	// RecCheckpoint records before its first write. A crash with this epoch
	// in flight happens after exactly that many completed persistence points.
	Checkpoints int
}

// Epochs partitions the write records of log into barrier-delimited epochs.
// Both RecFlush and RecCheckpoint close an epoch. Barriers with no
// intervening writes do not open empty epochs, so every returned epoch holds
// at least one write.
func Epochs(log []Record) []Epoch {
	var out []Epoch
	var cur []Record
	cps, opened := 0, 0 // checkpoints seen so far / before cur's first write
	for _, rec := range log {
		switch rec.Kind {
		case RecWrite:
			if len(cur) == 0 {
				opened = cps
			}
			cur = append(cur, rec)
		case RecFlush, RecCheckpoint:
			if len(cur) > 0 {
				out = append(out, Epoch{Index: len(out), Writes: cur, Closed: true, Checkpoints: opened})
				cur = nil
			}
			if rec.Kind == RecCheckpoint {
				cps++
			}
		}
	}
	if len(cur) > 0 {
		out = append(out, Epoch{Index: len(out), Writes: cur, Checkpoints: opened})
	}
	return out
}

// ReorderState identifies one crash state of the bounded-reordering model.
// Every write of the epochs before Epoch reached the disk (their closing
// barriers completed); of the in-flight epoch itself either the first
// Applied writes landed in order (Dropped nil: a mid-operation prefix), or
// the whole epoch landed except the writes at the Dropped indices (the
// device reordered them past the crash).
type ReorderState struct {
	// Epoch indexes Epochs(log); -1 for the empty state of a writeless log.
	Epoch int
	// Applied is the in-order prefix length when Dropped is nil, or the
	// epoch's full write count when Dropped is set.
	Applied int
	// Dropped lists the in-flight write indices (into the epoch's Writes)
	// that did not reach the disk, in ascending order. Nil for prefix states.
	Dropped []int
	// Desc is a stable human-readable state id ("e2-pfx3", "e2-drop1+4").
	Desc string
}

func dropDesc(epoch int, drop []int) string {
	parts := make([]string, len(drop))
	for i, d := range drop {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("e%d-drop%s", epoch, strings.Join(parts, "+"))
}

// combinations invokes fn with every size-d subset of {0..n-1} in
// lexicographic order; fn returning false stops the enumeration and makes
// combinations return false.
func combinations(n, d int, fn func([]int) bool) bool {
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !fn(idx) {
			return false
		}
		// Advance to the next combination.
		i := d - 1
		for i >= 0 && idx[i] == n-d+i {
			i--
		}
		if i < 0 {
			return true
		}
		idx[i]++
		for j := i + 1; j < d; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// ForEachReorderState enumerates the bounded-reordering crash-state space of
// log in a deterministic order. For each epoch E with n writes it yields
//
//   - every in-order prefix of E (Applied = 0..n-1) — the mid-operation
//     states, present at every bound including k = 0; then
//   - for k >= 1, the full epoch with every non-empty subset of at most k
//     writes dropped, smallest subsets first, lexicographic within a size;
//
// and after the last epoch one final fully-replayed state. k = 1 therefore
// reproduces exactly the legacy sweep (every write prefix plus every
// drop-one-unbarriered-write state) and larger bounds open strictly more
// states. fn receives the state descriptor and an applier that replays the
// state onto a destination device; fn returning false stops the sweep.
//
// Distinct descriptors may construct byte-identical device states (dropping
// an epoch's last write equals the prefix one shorter); callers that care
// deduplicate by content fingerprint.
func ForEachReorderState(log []Record, k int, fn func(st ReorderState, apply func(dst Device) error) bool) {
	epochs := Epochs(log)
	emit := func(st ReorderState) bool {
		return fn(st, func(dst Device) error { return applyReorderState(dst, epochs, st) })
	}
	for _, ep := range epochs {
		n := len(ep.Writes)
		for j := 0; j < n; j++ {
			if !emit(ReorderState{Epoch: ep.Index, Applied: j,
				Desc: fmt.Sprintf("e%d-pfx%d", ep.Index, j)}) {
				return
			}
		}
		maxDrop := k
		if maxDrop > n {
			maxDrop = n
		}
		for d := 1; d <= maxDrop; d++ {
			ok := combinations(n, d, func(drop []int) bool {
				return emit(ReorderState{Epoch: ep.Index, Applied: n,
					Dropped: append([]int(nil), drop...),
					Desc:    dropDesc(ep.Index, drop)})
			})
			if !ok {
				return
			}
		}
	}
	if len(epochs) == 0 {
		emit(ReorderState{Epoch: -1, Desc: "empty"})
		return
	}
	last := epochs[len(epochs)-1]
	emit(ReorderState{Epoch: last.Index, Applied: len(last.Writes),
		Desc: fmt.Sprintf("e%d-full", last.Index)})
}

// ReorderStateCount returns the number of states ForEachReorderState
// enumerates for log at bound k, without constructing any of them. It
// returns ErrStateCountOverflow when the exact count does not fit in int64.
func ReorderStateCount(log []Record, k int) (int64, error) {
	return reorderCountForSizes(epochSizes(Epochs(log)), k)
}

// applyReorderState replays st onto dst: all writes of the epochs before
// st.Epoch, then the in-flight epoch's prefix or drop-subset.
func applyReorderState(dst Device, epochs []Epoch, st ReorderState) error {
	write := func(rec Record) error {
		if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
			return fmt.Errorf("blockdev: reorder replay write seq %d: %w", rec.Seq, err)
		}
		return nil
	}
	for e := 0; e < st.Epoch && e < len(epochs); e++ {
		for _, rec := range epochs[e].Writes {
			if err := write(rec); err != nil {
				return err
			}
		}
	}
	if st.Epoch < 0 || st.Epoch >= len(epochs) {
		return nil
	}
	ep := epochs[st.Epoch]
	if st.Dropped == nil {
		if st.Applied > len(ep.Writes) {
			return fmt.Errorf("blockdev: reorder state %s applies %d of %d writes",
				st.Desc, st.Applied, len(ep.Writes))
		}
		for _, rec := range ep.Writes[:st.Applied] {
			if err := write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	next := 0 // Dropped is ascending; walk it alongside the writes.
	for i, rec := range ep.Writes {
		if next < len(st.Dropped) && st.Dropped[next] == i {
			next++
			continue
		}
		if err := write(rec); err != nil {
			return err
		}
	}
	return nil
}
