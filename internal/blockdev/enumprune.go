package blockdev

import (
	"fmt"
	"slices"
	"sync"
)

// Enumeration-time pruning for the bounded-reordering and fault sweeps.
// The two-tier verdict cache (crashmonkey's PruneCache) discovers state
// equivalence only after a crash state has been fully constructed; the
// pruned enumerators below decide it while enumerating, using the same O(1)
// XOR fingerprint algebra the tracked snapshots maintain: every state's
// content fingerprint is computed *before* the state is constructed (a pure
// XOR-delta computation over the epoch's per-block contributions), and a
// caller-supplied Seen index is consulted; an already-classified state is
// skipped without forking a snapshot or replaying a single write.
//
// The prune is verdict-preserving by construction and cross-checked against
// the unpruned scratch engines (docs/TESTING.md): the enumerated space
// satisfies count == Visited + ClassSkipped exactly, with count from the
// 128-bit guarded ReorderStateCount/FaultStateCount.

// EnumStats is the outcome of one pruned enumeration.
type EnumStats struct {
	// Visited counts states constructed and handed to fn.
	Visited int64
	// ClassSkipped counts states skipped because Seen classified their
	// fingerprint before construction.
	ClassSkipped int64
	// Replayed counts the writes replayed constructing the visited states
	// (the metered construction cost).
	Replayed int64
}

// States returns the total states the enumeration accounted for. It equals
// ReorderStateCount/FaultStateCount when the enumeration ran to completion.
func (s EnumStats) States() int64 {
	return s.Visited + s.ClassSkipped
}

// ReorderEnumOpts configures ForEachReorderStatePruned. The zero value
// disables class pruning: every state is constructed and handed to fn.
type ReorderEnumOpts struct {
	// Seen, when non-nil, is consulted with every state's content
	// fingerprint before the state is constructed; returning true skips
	// construction and fn entirely (the caller already knows the verdict for
	// this fingerprint). When fn runs, its state is the one Seen was last
	// consulted on, with the same fp — a caller may record fp in Seen and
	// key fn's state on it instead of reading the fork's Fingerprint.
	Seen func(st ReorderState, fp uint64) bool
	// Deprecated: Commute has no effect. The drop-sets it skipped are
	// byte-identical to an earlier drop-set of the same epoch, so Seen
	// answers them; it is kept only for callers that still set it.
	Commute bool
}

// FaultEnumOpts configures ForEachFaultStatePruned. The zero value disables
// class pruning: every state is constructed and handed to fn.
type FaultEnumOpts struct {
	// Seen, when non-nil, is consulted with every state's content
	// fingerprint before the state is constructed; returning true skips
	// construction and fn entirely. When fn runs, its state is the one Seen
	// was last consulted on, with the same fp (as for ReorderEnumOpts.Seen).
	Seen func(st FaultState, fp uint64) bool
}

// builder is the construction core both pruned enumerators drive. It owns
// the rolling tracked snapshot over base (newBuilder's second result), which
// advances epoch by epoch, the replay that advances it and builds each
// state's delta, the emit step that consults Seen before forking, and the
// sweep's accounting. S is the enumerator's state type. The rolling snapshot
// is a separate value, not a field: escape analysis does not tell a
// struct's fields apart, so forking a field would move the caller's seen
// and fn closures to the heap on every sweep.
type builder[S any] struct {
	seen  func(st S, fp uint64) bool
	fn    func(st S, crash *Snapshot) bool
	stats EnumStats
}

func newBuilder[S any](base Device, meter *BlockMeter, seen func(S, uint64) bool,
	fn func(S, *Snapshot) bool) (builder[S], *Snapshot) {
	rolling := NewTrackedSnapshot(base)
	rolling.SetMeter(meter)
	return builder[S]{seen: seen, fn: fn}, rolling
}

// close releases the rolling snapshot and folds the writes replayed into
// its meter.
func (b *builder[S]) close(rolling *Snapshot) {
	if m := rolling.meter; m != nil {
		m.BlocksReplayed.Add(b.stats.Replayed)
	}
	rolling.Release()
}

// replay writes recs onto dst as replay does, counting the writes.
func (b *builder[S]) replay(dst *Snapshot, recs []Record, skip []int, mis int) error {
	n, err := replay(dst, recs, skip, mis)
	b.stats.Replayed += n
	return err
}

// emit checks the class index with the state's pre-computed fingerprint,
// and only on a miss forks parent, applies the state's delta (nil: none)
// and hands the fork to fn. It reports whether the sweep goes on.
func (b *builder[S]) emit(st S, fp uint64, parent *Snapshot, delta func(*Snapshot) error) (bool, error) {
	if b.seen != nil && b.seen(st, fp) {
		b.stats.ClassSkipped++
		return true, nil
	}
	crash := NewTrackedSnapshot(parent)
	defer crash.Release()
	if delta != nil {
		if err := delta(crash); err != nil {
			return false, err
		}
	}
	b.stats.Visited++
	return b.fn(st, crash), nil
}

// finish emits the sweep's final state (finalState) over the fully
// advanced rolling snapshot and returns the sweep's stats.
func (b *builder[S]) finish(rolling *Snapshot, st S) (EnumStats, error) {
	_, err := b.emit(st, rolling.Fingerprint(), rolling, nil)
	return b.stats, err
}

// epochPlan precomputes the fingerprint algebra of one epoch over the
// rolling snapshot positioned at the epoch's base: the zero-padded
// contribution of every write, the per-block write chains, and the
// fingerprint of the fully-applied epoch. With it, any drop-set's or
// misdirected-write's fingerprint is an O(k) XOR delta off fullFP — no
// snapshot is forked and no write replayed to decide class membership.
// A sweep takes one plan from planPool and refills it epoch by epoch.
type epochPlan struct {
	c      []uint64      // contribution of write i (zero-padded block content)
	prev   []int         // previous same-block write index, or -1
	last   map[int64]int // block -> index of its final write in the epoch
	fullFP uint64        // fingerprint with every epoch write applied
	drop   []int         // room for a drop-set of the epoch, the sweep's scratch
}

// planPool recycles epoch plans between sweeps, their tables emptied but
// grown, so a sweep that plans its epochs allocates nothing for them.
var planPool = sync.Pool{New: func() any { return &epochPlan{last: make(map[int64]int)} }}

// plan refills p with the epoch's plan, reusing its tables. rolling must
// sit at the epoch base.
func (p *epochPlan) plan(rolling *Snapshot, writes []Record) {
	n := len(writes)
	p.c = slices.Grow(p.c[:0], n)[:n]
	p.prev = slices.Grow(p.prev[:0], n)[:n]
	p.drop = slices.Grow(p.drop[:0], n)
	clear(p.last)
	for i, rec := range writes {
		p.c[i] = paddedContribution(rec.Block, rec.Data)
		p.prev[i] = -1
		if j, ok := p.last[rec.Block]; ok {
			p.prev[i] = j
		}
		p.last[rec.Block] = i
	}
	p.fullFP = rolling.Fingerprint()
	for b, i := range p.last {
		p.fullFP ^= rolling.term(b) ^ p.c[i]
	}
}

// inSet reports whether i is in the ascending drop-set (len <= k, so a scan
// beats anything fancier).
func inSet(set []int, i int) bool {
	for _, d := range set {
		if d == i {
			return true
		}
	}
	return false
}

// dropFP returns the fingerprint of the epoch with the drop-set removed:
// for every block whose final epoch write is dropped, swap that write's
// contribution for the latest surviving same-block write's (or the block's
// pre-epoch term when the whole chain is dropped). rolling must still sit
// at the epoch base.
func (p *epochPlan) dropFP(rolling *Snapshot, writes []Record, drop []int) uint64 {
	fp := p.fullFP
	for _, d := range drop {
		b := writes[d].Block
		if p.last[b] != d {
			continue // a later surviving-or-dropped write owns this block's term
		}
		j := p.prev[d]
		for j >= 0 && inSet(drop, j) {
			j = p.prev[j]
		}
		var surv uint64
		if j >= 0 {
			surv = p.c[j]
		} else {
			surv = rolling.term(b)
		}
		fp ^= p.c[d] ^ surv
	}
	return fp
}

// ForEachReorderStatePruned enumerates the bounded-reordering crash-state
// space of log — the same space, order, states and byte-identical
// device contents as ForEachReorderState — skipping states per opts before
// construction. Each state is built from its epoch boundary instead of
// replaying every prior epoch from scratch:
//
//   - a rolling tracked snapshot over base advances epoch by epoch, so the
//     barriered prefix shared by all of an epoch's states is replayed once
//     per sweep instead of once per state;
//   - the in-order prefix states of an epoch advance a second-level rolling
//     fork one write at a time, so the whole prefix family costs O(n) writes
//     total rather than O(n²);
//   - drop-subset states fork from the epoch base and replay only the
//     epoch's surviving writes.
//
// Every enumerated state is accounted exactly once in the returned
// EnumStats: handed to fn (Visited) or skipped by the Seen index
// (ClassSkipped); States() equals ReorderStateCount when the sweep runs to
// completion.
//
// fn receives each state as a tracked COW fork: recovery writes stay in the
// fork, and Fingerprint() equals the from-scratch overlay fingerprint. The
// fork's delta writes are hashed only if fn reads it — fn may instead take
// the fp Seen was just consulted with (ReorderEnumOpts.Seen) — and writes
// after a read are hashed only by a later read. The fork is valid only for
// the duration of fn and is released back to the buffer pool when fn
// returns; fn returning false stops the sweep. Replayed in the returned
// stats is the metered construction cost, also folded into meter when
// non-nil.
func ForEachReorderStatePruned(base Device, log []Record, k int, opts ReorderEnumOpts,
	meter *BlockMeter, fn func(st ReorderState, crash *Snapshot) bool) (EnumStats, error) {

	b, rolling := newBuilder(base, meter, opts.Seen, fn)
	defer b.close(rolling)
	epochs := Epochs(log)
	plan := planPool.Get().(*epochPlan)
	defer planPool.Put(plan)
	for _, ep := range epochs {
		n := len(ep.Writes)
		// The prefix family shares an inner rolling fork: state j is the
		// fork after j writes, and each iteration appends exactly one, so
		// the prefix fingerprint is always at hand before construction.
		inner := NewTrackedSnapshot(rolling)
		for j := 0; j < n; j++ {
			ok, err := b.emit(ReorderState{Epoch: ep.Index, Applied: j, Interval: ep.Checkpoints},
				inner.Fingerprint(), inner, nil)
			if err == nil && ok {
				err = b.replay(inner, ep.Writes[j:j+1], nil, -1)
			}
			if err != nil || !ok {
				inner.Release()
				return b.stats, err
			}
		}
		inner.Release()

		maxDrop := min(k, n)
		if maxDrop > 0 {
			plan.plan(rolling, ep.Writes)
		}
		for d := 1; d <= maxDrop; d++ {
			var sweepErr error
			ok := combinations(plan.drop[:d], n, func(drop []int) bool {
				st := ReorderState{Epoch: ep.Index, Applied: n, Dropped: drop, Interval: ep.Checkpoints}
				cont, err := b.emit(st, plan.dropFP(rolling, ep.Writes, drop), rolling,
					func(crash *Snapshot) error { return b.replay(crash, ep.Writes, drop, -1) })
				sweepErr = err
				return err == nil && cont
			})
			if sweepErr != nil || !ok {
				return b.stats, sweepErr
			}
		}
		// Advance the epoch base: every later state replays this epoch's
		// writes exactly once, here.
		if err := b.replay(rolling, ep.Writes, nil, -1); err != nil {
			return b.stats, err
		}
	}
	return b.finish(rolling, finalState(epochs))
}

// ForEachFaultStatePruned enumerates the crash-state space of one fault
// kind — the same space, order, states and byte-identical device
// contents as ForEachFaultState — consulting opts.Seen with each state's
// fingerprint before construction. Each state forks a rolling tracked
// snapshot instead of replaying every prior epoch from scratch, and applies
// only its own delta: nothing for fault-free prefix/final states, the single
// torn or corrupting write for torn/corrupt states, or the in-flight epoch
// with one write redirected for misdirect states. The fingerprints of torn
// and corrupt states cost one block hash (torn states hash the write's
// prefix incrementally, one sector per state, and the rest of the block
// from a borrowed view); misdirect states are pure XOR deltas, so the class
// index prunes their whole-epoch replays without a single write.
//
// fn receives each state as a tracked COW fork under the same contract as
// ForEachReorderStatePruned: valid only for the duration of fn, released
// when fn returns, and returning false stops the sweep. Replayed in the
// returned stats is the metered construction cost, also folded into meter
// when non-nil.
func ForEachFaultStatePruned(base Device, log []Record, kind FaultKind, sectorSize int,
	opts FaultEnumOpts, meter *BlockMeter, fn func(st FaultState, crash *Snapshot) bool) (EnumStats, error) {

	spb, err := sectorsPerBlock(sectorSize)
	if err != nil {
		return EnumStats{}, err
	}
	if kind < 0 || int(kind) >= NumFaultKinds {
		return EnumStats{}, fmt.Errorf("blockdev: unknown fault kind %d", int(kind))
	}
	b, rolling := newBuilder(base, meter, opts.Seen, fn)
	defer b.close(rolling)
	epochs := Epochs(log)
	plan := planPool.Get().(*epochPlan)
	defer planPool.Put(plan)
	for _, ep := range epochs {
		n := len(ep.Writes)
		switch kind {
		case FaultTorn:
			// The rolling snapshot advances write by write; each prefix state
			// is a bare fork and each torn state a fork plus one partial write,
			// its fingerprint one block hash off the rolling fingerprint.
			for j, rec := range ep.Writes {
				ok, err := b.emit(FaultState{Kind: kind, Epoch: ep.Index, Write: -1, Applied: j,
					Interval: ep.Checkpoints}, rolling.Fingerprint(), rolling, nil)
				if err != nil || !ok {
					return b.stats, err
				}
				torn := newTornHasher(rec, sectorSize)
				for s := 1; s < spb; s++ {
					contrib, err := torn.next(rolling)
					if err != nil {
						return b.stats, err
					}
					fp := rolling.Fingerprint() ^ rolling.term(rec.Block) ^ contrib
					ok, err := b.emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: j,
						Sectors: s, Interval: ep.Checkpoints}, fp, rolling,
						func(crash *Snapshot) error {
							b.stats.Replayed++
							return writeTorn(crash, rec, s, sectorSize)
						})
					if err != nil || !ok {
						return b.stats, err
					}
				}
				if err := b.replay(rolling, ep.Writes[j:j+1], nil, -1); err != nil {
					return b.stats, err
				}
			}
		case FaultCorrupt:
			// Corrupt states carry the whole epoch, so the rolling snapshot
			// advances first and each state is a fork plus one corrupting
			// write, its fingerprint one hash of the corrupted block.
			if err := b.replay(rolling, ep.Writes, nil, -1); err != nil {
				return b.stats, err
			}
			buf := poolGet()
			for j, rec := range ep.Writes {
				for _, zeroed := range []bool{true, false} {
					err := corruptBlock(rolling, rec.Block, zeroed, buf)
					if err != nil {
						poolPut(buf)
						return b.stats, err
					}
					fp := rolling.Fingerprint() ^ rolling.term(rec.Block) ^ BlockContribution(rec.Block, buf)
					ok, err := b.emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: n,
						Zeroed: zeroed, Interval: ep.Checkpoints}, fp, rolling,
						func(crash *Snapshot) error {
							b.stats.Replayed++
							return writeCorrupt(crash, rec, zeroed)
						})
					if err != nil || !ok {
						poolPut(buf)
						return b.stats, err
					}
				}
			}
			poolPut(buf)
		case FaultMisdirect:
			// A misdirected write changes the epoch mid-replay, so each state
			// forks the pre-epoch base and replays the epoch with one write
			// redirected — the expensive whole-epoch replays the class index
			// skips with a pure XOR-delta fingerprint, no construction at
			// all. The rolling snapshot advances afterwards.
			plan.plan(rolling, ep.Writes)
			for j, rec := range ep.Writes {
				fp := plan.fullFP
				if target := misdirectTarget(rolling, rec); target != rec.Block {
					// The intended block loses write j, as if it were
					// dropped...
					fp = plan.dropFP(rolling, ep.Writes, []int{j})
					// ...and the target gains its data, unless a later epoch
					// write to the target overwrites the misdirection.
					if li, wrote := plan.last[target]; !wrote || li < j {
						old := rolling.term(target)
						if wrote {
							old = plan.c[li]
						}
						fp ^= old ^ paddedContribution(target, rec.Data)
					}
				}
				ok, err := b.emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: n,
					Interval: ep.Checkpoints}, fp, rolling,
					func(crash *Snapshot) error { return b.replay(crash, ep.Writes, nil, j) })
				if err != nil || !ok {
					return b.stats, err
				}
			}
			if err := b.replay(rolling, ep.Writes, nil, -1); err != nil {
				return b.stats, err
			}
		}
	}
	f := finalState(epochs)
	return b.finish(rolling, FaultState{Kind: kind, Epoch: f.Epoch, Write: -1, Applied: f.Applied, Final: true,
		Interval: f.Interval})
}

// tornHasher yields the contributions of one write's torn states in sector
// order without assembling any of them. The torn block is the write's
// zero-padded data up to the tear, then the block's current contents. Its
// hash folds the new-data prefix's whole words into a running HashBytes
// state carried from one tear to the next; a tear inside an 8-byte word
// folds that one word built from both sides, and the rest of the current
// block is hashed straight from a borrowed view. So every sector size that
// divides the block hashes the same way.
type tornHasher struct {
	rec    Record
	sector int
	h      uint64 // hash of the block number and the prefix words folded so far
	lo     int    // end of the prefix words folded into h, a multiple of 8
	tear   int    // byte offset of the current tear
}

func newTornHasher(rec Record, sectorSize int) tornHasher {
	return tornHasher{rec: rec, sector: sectorSize, h: blockSeed(rec.Block)}
}

// next moves the tear one sector on and returns the contribution of the
// write torn there over dev's current block. It reads the block once,
// metered like any borrowed read.
func (t *tornHasher) next(dev Device) (uint64, error) {
	data := t.rec.Data
	t.tear += t.sector
	w := t.tear &^ 7 // start of the word the tear falls in
	if end := min(len(data), w); end > t.lo {
		var folded int
		t.h, folded = hashPadded(t.h, data[t.lo:end])
		t.lo += folded
	}
	if t.lo < w {
		t.h = HashBytes(t.h, zeroBlock[t.lo:w])
		t.lo = w
	}
	view, err := ReadView(dev, t.rec.Block)
	if err != nil {
		return 0, err
	}
	h := t.h
	if cut := t.tear - w; cut > 0 {
		// The tear splits a word: new data, zero-padded, below the tear and
		// the current contents above it.
		var word [8]byte
		copy(word[:], view[w:w+8])
		n := 0
		if w < len(data) {
			n = copy(word[:cut], data[w:])
		}
		clear(word[n:cut])
		h = HashBytes(h, word[:])
		w += 8
	}
	return mix64(HashBytes(h, view[w:])), nil
}
