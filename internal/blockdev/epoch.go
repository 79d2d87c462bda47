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
	// Writes holds the epoch's RecWrite records in issue order. It aliases
	// the log Epochs partitioned and is read-only.
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
// at least one write. Only barriers separate writes, so each epoch's Writes
// is a contiguous run of log, which it aliases rather than copies.
func Epochs(log []Record) []Epoch {
	n, open := 0, false
	for _, rec := range log {
		switch rec.Kind {
		case RecWrite:
			if !open {
				n, open = n+1, true
			}
		case RecFlush, RecCheckpoint:
			open = false
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Epoch, 0, n)
	start := -1         // index of the open epoch's first write, -1 when none is open
	cps, opened := 0, 0 // checkpoints seen so far / before the open epoch's first write
	for i, rec := range log {
		switch rec.Kind {
		case RecWrite:
			if start < 0 {
				start, opened = i, cps
			}
		case RecFlush, RecCheckpoint:
			if start >= 0 {
				out = append(out, Epoch{Index: len(out), Writes: log[start:i:i], Closed: true, Checkpoints: opened})
				start = -1
			}
			if rec.Kind == RecCheckpoint {
				cps++
			}
		}
	}
	if start >= 0 {
		out = append(out, Epoch{Index: len(out), Writes: log[start:len(log):len(log)], Checkpoints: opened})
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
	// It is the enumerator's scratch, valid only during the callback that
	// received the state (and the applier handed with it): a caller that
	// keeps it must copy it.
	Dropped []int
	// Final marks the sweep's last state ("e2-full", or "empty").
	Final bool
	// Interval is the in-flight epoch's Checkpoints, 0 for the empty state.
	Interval int
}

// String returns the state's stable id: "e2-pfx3", "e2-drop1+4", "e2-full"
// or "empty".
func (st ReorderState) String() string {
	switch {
	case st.Epoch < 0:
		return "empty"
	case st.Final:
		return fmt.Sprintf("e%d-full", st.Epoch)
	case st.Dropped == nil:
		return fmt.Sprintf("e%d-pfx%d", st.Epoch, st.Applied)
	}
	drop := strings.Trim(fmt.Sprint(st.Dropped), "[]") // "1 4"
	return fmt.Sprintf("e%d-drop%s", st.Epoch, strings.ReplaceAll(drop, " ", "+"))
}

// combinations invokes fn with every size-len(idx) subset of {0..n-1} in
// lexicographic order, built in idx itself; fn returning false stops the
// enumeration and makes combinations return false.
func combinations(idx []int, n int, fn func([]int) bool) bool {
	d := len(idx)
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
// states. fn receives the state and an applier that replays the state onto
// a destination device and returns the number of writes it replayed; fn
// returning false stops the sweep.
//
// Distinct states may construct byte-identical device states (dropping
// an epoch's last write equals the prefix one shorter); callers that care
// deduplicate by content fingerprint.
func ForEachReorderState(log []Record, k int, fn func(st ReorderState, apply func(dst Device) (int64, error)) bool) {
	epochs := Epochs(log)
	emit := func(st ReorderState) bool {
		return fn(st, func(dst Device) (int64, error) {
			return replayState(dst, epochs, st.Epoch, st.Applied, st.Dropped, -1)
		})
	}
	for _, ep := range epochs {
		n := len(ep.Writes)
		for j := 0; j < n; j++ {
			if !emit(ReorderState{Epoch: ep.Index, Applied: j, Interval: ep.Checkpoints}) {
				return
			}
		}
		for d := 1; d <= min(k, n); d++ {
			ok := combinations(make([]int, d), n, func(drop []int) bool {
				return emit(ReorderState{Epoch: ep.Index, Applied: n, Dropped: drop, Interval: ep.Checkpoints})
			})
			if !ok {
				return
			}
		}
	}
	emit(finalState(epochs))
}

// ReorderStateCount returns the number of states ForEachReorderState
// enumerates for log at bound k, without constructing any of them. It
// returns ErrStateCountOverflow when the exact count does not fit in int64.
func ReorderStateCount(log []Record, k int) (int64, error) {
	return reorderCountForSizes(epochSizes(Epochs(log)), k)
}

// finalState is the state every sweep ends on: after the last epoch, all of
// its writes applied ("e2-full"), or "empty" (epoch -1) for a writeless log.
// The fault sweeps end on the same device state.
func finalState(epochs []Epoch) ReorderState {
	if len(epochs) == 0 {
		return ReorderState{Epoch: -1, Final: true}
	}
	last := epochs[len(epochs)-1]
	return ReorderState{Epoch: last.Index, Applied: len(last.Writes), Final: true, Interval: last.Checkpoints}
}

// replay writes recs onto dst in order, skipping the indices in the
// ascending skip list and landing write mis (when >= 0) on its misdirect
// target. It returns the number of writes applied.
func replay(dst Device, recs []Record, skip []int, mis int) (int64, error) {
	var n int64
	next := 0 // skip is ascending; walk it alongside the writes
	for i, rec := range recs {
		if next < len(skip) && skip[next] == i {
			next++
			continue
		}
		block := rec.Block
		if i == mis {
			block = misdirectTarget(dst, rec)
		}
		if err := dst.WriteBlock(block, rec.Data); err != nil {
			return n, fmt.Errorf("blockdev: replay write seq %d: %w", rec.Seq, err)
		}
		n++
	}
	return n, nil
}

// replayState is the scratch appliers' replay: every write of the epochs
// before epoch, then the in-flight epoch's first applied writes as replay
// lands them (skip and mis index that epoch's writes). It returns the number
// of writes applied.
func replayState(dst Device, epochs []Epoch, epoch, applied int, skip []int, mis int) (int64, error) {
	var n int64
	for _, ep := range epochs[:max(epoch, 0)] {
		m, err := replay(dst, ep.Writes, nil, -1)
		n += m
		if err != nil {
			return n, err
		}
	}
	if epoch < 0 {
		return n, nil
	}
	m, err := replay(dst, epochs[epoch].Writes[:applied], skip, mis)
	return n + m, err
}
