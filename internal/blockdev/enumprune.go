package blockdev

import "fmt"

// Enumeration-time pruning for the bounded-reordering and fault sweeps.
// The two-tier verdict cache (crashmonkey's PruneCache) discovers state
// equivalence only after a crash state has been fully constructed; the
// pruned enumerators below decide it while enumerating, using the same O(1)
// XOR fingerprint algebra the tracked snapshots maintain:
//
//   - class pruning: every state's content fingerprint is computed *before*
//     the state is constructed (a pure XOR-delta computation over the
//     epoch's per-block contributions), and a caller-supplied Seen index is
//     consulted; an already-classified state is skipped without forking a
//     snapshot or replaying a single write.
//   - commutativity pruning (reorder only): a drop-set containing a write
//     that a later surviving write to the same block overwrites produces an
//     image byte-identical to the drop-set without that write. Such sets are
//     skipped outright and attributed to their canonical representative —
//     the per-block suffix-closed subset, which is strictly smaller and so
//     was enumerated earlier (subsets are enumerated smallest-first).
//
// Both prunes are verdict-preserving by construction and cross-checked
// against the unpruned scratch engines (docs/TESTING.md): the enumerated
// space satisfies count == Visited + ClassSkipped + CommuteSkipped exactly,
// with count from the 128-bit guarded ReorderStateCount/FaultStateCount.

// EnumStats is the outcome of one pruned enumeration.
type EnumStats struct {
	// Visited counts states constructed and handed to fn.
	Visited int64
	// ClassSkipped counts states skipped because Seen classified their
	// fingerprint before construction.
	ClassSkipped int64
	// CommuteSkipped counts drop-sets skipped as commutatively identical to
	// an earlier canonical drop-set (reorder only).
	CommuteSkipped int64
	// Replayed counts the writes replayed constructing the visited states
	// (the metered construction cost).
	Replayed int64
}

// States returns the total states the enumeration accounted for. It equals
// ReorderStateCount/FaultStateCount when the enumeration ran to completion.
func (s EnumStats) States() int64 {
	return s.Visited + s.ClassSkipped + s.CommuteSkipped
}

// ReorderEnumOpts configures ForEachReorderStatePruned. The zero value
// disables both prunes: every state is constructed and handed to fn.
type ReorderEnumOpts struct {
	// Seen, when non-nil, is consulted with every state's content
	// fingerprint before the state is constructed; returning true skips
	// construction and fn entirely (the caller already knows the verdict for
	// this fingerprint). When fn runs, its state is the one Seen was last
	// consulted on, with the same fp — a caller may record fp in Seen and
	// key fn's state on it instead of reading the fork's Fingerprint.
	Seen func(st ReorderState, fp uint64) bool
	// Commute enables commutativity pruning of redundant drop-sets.
	Commute bool
	// OnCommuteSkip, when non-nil, observes every commute-skipped drop-set
	// together with the Desc of its canonical representative (always
	// enumerated earlier in the same epoch).
	OnCommuteSkip func(st ReorderState, repDesc string)
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

// epochPlan precomputes the fingerprint algebra of one epoch over the
// rolling snapshot positioned at the epoch's base: the zero-padded
// contribution of every write, the per-block write chains, and the
// fingerprint of the fully-applied epoch. With it, any drop-set's or
// misdirected-write's fingerprint is an O(k) XOR delta off fullFP — no
// snapshot is forked and no write replayed to decide class membership.
type epochPlan struct {
	c      []uint64      // contribution of write i (zero-padded block content)
	prev   []int         // previous same-block write index, or -1
	next   []int         // next same-block write index, or -1
	last   map[int64]int // block -> index of its final write in the epoch
	fullFP uint64        // fingerprint with every epoch write applied
}

// planEpoch builds the epoch's plan. rolling must sit at the epoch base.
func planEpoch(rolling *Snapshot, writes []Record) epochPlan {
	p := epochPlan{
		c:    make([]uint64, len(writes)),
		prev: make([]int, len(writes)),
		next: make([]int, len(writes)),
		last: make(map[int64]int, len(writes)),
	}
	buf := poolGet()
	defer blockPool.Put(buf)
	for i, rec := range writes {
		// Contributions must match Snapshot.WriteBlock, which stores every
		// write as a zero-padded full block.
		data := rec.Data
		if len(data) < BlockSize {
			n := copy(buf, data)
			clear(buf[n:])
			data = buf
		}
		p.c[i] = BlockContribution(rec.Block, data)
		p.prev[i], p.next[i] = -1, -1
		if j, ok := p.last[rec.Block]; ok {
			p.prev[i] = j
			p.next[j] = i
		}
		p.last[rec.Block] = i
	}
	p.fullFP = rolling.Fingerprint()
	for b, i := range p.last {
		if old, dirty := rolling.contribution(b); dirty {
			p.fullFP ^= old
		}
		p.fullFP ^= p.c[i]
	}
	return p
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
		} else if old, dirty := rolling.contribution(b); dirty {
			surv = old
		}
		fp ^= p.c[d] ^ surv
	}
	return fp
}

// canonicalDrop implements the commute-prune rule. A member i of drop is
// removable when some later write to the same block survives (is not in
// drop): dropping i is then unobservable, because that later write
// overwrites the block either way. The canonical form removes every
// removable member at once — what remains is, per block, a suffix-closed
// tail of the block's write chain, none of which is removable, so one pass
// is a fixed point. The canonical set is strictly smaller than drop, hence
// enumerated earlier (subsets are enumerated smallest-first, lexicographic
// within a size).
//
// canonicalDrop returns (nil, false) when drop is its own canonical form, or
// when the canonical form is empty — the empty set's representative is the
// fully-applied epoch, which is enumerated *later* (as the next epoch's
// pfx0 or the final full state), so skipping would orphan the attribution.
func (p *epochPlan) canonicalDrop(drop []int) ([]int, bool) {
	var keep []int
	removable := 0
	for _, d := range drop {
		j := p.next[d]
		for j >= 0 && inSet(drop, j) {
			j = p.next[j]
		}
		if j >= 0 {
			removable++
		} else {
			keep = append(keep, d)
		}
	}
	if removable == 0 || len(keep) == 0 {
		return nil, false
	}
	return keep, true
}

// ForEachReorderStatePruned enumerates the bounded-reordering crash-state
// space of log — the same space, order, descriptors and byte-identical
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
// EnumStats: handed to fn (Visited), skipped by the Seen index
// (ClassSkipped), or skipped as commutatively redundant (CommuteSkipped);
// States() equals ReorderStateCount when the sweep runs to completion.
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

	var stats EnumStats
	epochs := Epochs(log)
	rolling := NewTrackedSnapshot(base)
	rolling.SetMeter(meter)
	defer rolling.Release()

	defer func() {
		if meter != nil {
			meter.BlocksReplayed.Add(stats.Replayed)
		}
	}()
	replay := func(dst *Snapshot, recs []Record, skip []int) error {
		next := 0 // skip is ascending; walk it alongside the writes
		for i, rec := range recs {
			if next < len(skip) && skip[next] == i {
				next++
				continue
			}
			if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
				return fmt.Errorf("blockdev: reorder replay write seq %d: %w", rec.Seq, err)
			}
			stats.Replayed++
		}
		return nil
	}
	// emit checks the class index with the state's pre-computed fingerprint,
	// and only on a miss forks parent and replays the state's delta for fn.
	emit := func(st ReorderState, fp uint64, parent *Snapshot, writes []Record, skip []int) (bool, error) {
		if opts.Seen != nil && opts.Seen(st, fp) {
			stats.ClassSkipped++
			return true, nil
		}
		crash := NewTrackedSnapshot(parent)
		defer crash.Release()
		if err := replay(crash, writes, skip); err != nil {
			return false, err
		}
		stats.Visited++
		return fn(st, crash), nil
	}

	for _, ep := range epochs {
		n := len(ep.Writes)
		// The prefix family shares an inner rolling fork: state j is the
		// fork after j writes, and each iteration appends exactly one, so
		// the prefix fingerprint is always at hand before construction.
		inner := NewTrackedSnapshot(rolling)
		for j := 0; j < n; j++ {
			ok, err := emit(ReorderState{Epoch: ep.Index, Applied: j,
				Desc: fmt.Sprintf("e%d-pfx%d", ep.Index, j)}, inner.Fingerprint(), inner, nil, nil)
			if err != nil || !ok {
				inner.Release()
				return stats, err
			}
			if err := replay(inner, ep.Writes[j:j+1], nil); err != nil {
				inner.Release()
				return stats, err
			}
		}
		inner.Release()

		maxDrop := k
		if maxDrop > n {
			maxDrop = n
		}
		var plan epochPlan
		if maxDrop > 0 {
			plan = planEpoch(rolling, ep.Writes)
		}
		for d := 1; d <= maxDrop; d++ {
			var sweepErr error
			ok := combinations(n, d, func(drop []int) bool {
				if opts.Commute {
					if canon, skip := plan.canonicalDrop(drop); skip {
						stats.CommuteSkipped++
						if opts.OnCommuteSkip != nil {
							opts.OnCommuteSkip(ReorderState{Epoch: ep.Index, Applied: n,
								Dropped: append([]int(nil), drop...),
								Desc:    dropDesc(ep.Index, drop)}, dropDesc(ep.Index, canon))
						}
						return true
					}
				}
				cont, err := emit(ReorderState{Epoch: ep.Index, Applied: n,
					Dropped: append([]int(nil), drop...),
					Desc:    dropDesc(ep.Index, drop)},
					plan.dropFP(rolling, ep.Writes, drop), rolling, ep.Writes, drop)
				sweepErr = err
				return err == nil && cont
			})
			if sweepErr != nil || !ok {
				return stats, sweepErr
			}
		}
		// Advance the epoch base: every later state replays this epoch's
		// writes exactly once, here.
		if err := replay(rolling, ep.Writes, nil); err != nil {
			return stats, err
		}
	}

	if len(epochs) == 0 {
		_, err := emit(ReorderState{Epoch: -1, Desc: "empty"}, rolling.Fingerprint(),
			rolling, nil, nil)
		return stats, err
	}
	last := epochs[len(epochs)-1]
	_, err := emit(ReorderState{Epoch: last.Index, Applied: len(last.Writes),
		Desc: fmt.Sprintf("e%d-full", last.Index)}, rolling.Fingerprint(), rolling, nil, nil)
	return stats, err
}

// ForEachFaultStatePruned enumerates the crash-state space of one fault
// kind — the same space, order, descriptors and byte-identical device
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

	var stats EnumStats
	spb, err := sectorsPerBlock(sectorSize)
	if err != nil {
		return stats, err
	}
	if kind < 0 || int(kind) >= NumFaultKinds {
		return stats, fmt.Errorf("blockdev: unknown fault kind %d", int(kind))
	}
	epochs := Epochs(log)
	rolling := NewTrackedSnapshot(base)
	rolling.SetMeter(meter)
	defer rolling.Release()

	defer func() {
		if meter != nil {
			meter.BlocksReplayed.Add(stats.Replayed)
		}
	}()
	replay := func(dst *Snapshot, recs []Record) error {
		for _, rec := range recs {
			if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
				return fmt.Errorf("blockdev: fault replay write seq %d: %w", rec.Seq, err)
			}
			stats.Replayed++
		}
		return nil
	}
	// emit consults the class index with the state's pre-computed
	// fingerprint, and only on a miss forks the rolling snapshot, applies
	// the state's delta, and hands the fork to fn.
	emit := func(st FaultState, fp uint64, delta func(*Snapshot) error) (bool, error) {
		if opts.Seen != nil && opts.Seen(st, fp) {
			stats.ClassSkipped++
			return true, nil
		}
		crash := NewTrackedSnapshot(rolling)
		defer crash.Release()
		if delta != nil {
			if err := delta(crash); err != nil {
				return false, err
			}
		}
		stats.Visited++
		return fn(st, crash), nil
	}
	// blockTerm is the rolling snapshot's current fingerprint term for block
	// b: its dirty contribution, or 0 when the block is still pristine.
	blockTerm := func(b int64) uint64 {
		if old, dirty := rolling.contribution(b); dirty {
			return old
		}
		return 0
	}
	// faultedContribution hashes the contents block b would hold after
	// mutate edits its current (rolling) contents in place.
	faultedContribution := func(b int64, mutate func(buf []byte)) (uint64, error) {
		buf := poolGet()
		defer blockPool.Put(buf)
		if err := ReadInto(rolling, b, buf); err != nil {
			return 0, err
		}
		mutate(buf)
		return BlockContribution(b, buf), nil
	}

	for _, ep := range epochs {
		n := len(ep.Writes)
		switch kind {
		case FaultTorn:
			// The rolling snapshot advances write by write; each prefix state
			// is a bare fork and each torn state a fork plus one partial write,
			// its fingerprint one block hash off the rolling fingerprint.
			for j := 0; j < n; j++ {
				ok, err := emit(FaultState{Kind: kind, Epoch: ep.Index, Write: -1, Applied: j,
					Desc: fmt.Sprintf("e%d-pfx%d", ep.Index, j)}, rolling.Fingerprint(), nil)
				if err != nil || !ok {
					return stats, err
				}
				rec := ep.Writes[j]
				torn := newTornHasher(rec, sectorSize)
				for s := 1; s < spb; s++ {
					sectors := s
					var tornContrib uint64
					if torn != nil {
						tornContrib, err = torn.next(rolling)
					} else {
						tornContrib, err = faultedContribution(rec.Block, func(buf []byte) {
							nb := sectors * sectorSize
							copied := copy(buf[:nb], rec.Data)
							clear(buf[copied:nb])
						})
					}
					if err != nil {
						return stats, err
					}
					fp := rolling.Fingerprint() ^ blockTerm(rec.Block) ^ tornContrib
					ok, err := emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: j,
						Sectors: s, Desc: fmt.Sprintf("e%d-w%d-torn%d", ep.Index, j, s)}, fp,
						func(crash *Snapshot) error {
							stats.Replayed++
							return writeTorn(crash, rec, sectors, sectorSize)
						})
					if err != nil || !ok {
						return stats, err
					}
				}
				if err := replay(rolling, ep.Writes[j:j+1]); err != nil {
					return stats, err
				}
			}
		case FaultCorrupt:
			// Corrupt states carry the whole epoch, so the rolling snapshot
			// advances first and each state is a fork plus one corrupting write.
			if err := replay(rolling, ep.Writes); err != nil {
				return stats, err
			}
			for j := 0; j < n; j++ {
				rec := ep.Writes[j]
				for _, zeroed := range []bool{true, false} {
					variant := "flip"
					if zeroed {
						variant = "zero"
					}
					var corrupted uint64
					if zeroed {
						corrupted = BlockContribution(rec.Block, zeroBlock)
					} else {
						corrupted, err = faultedContribution(rec.Block, func(buf []byte) {
							for i := range buf {
								buf[i] = ^buf[i]
							}
						})
						if err != nil {
							return stats, err
						}
					}
					fp := rolling.Fingerprint() ^ blockTerm(rec.Block) ^ corrupted
					z := zeroed
					ok, err := emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: n,
						Zeroed: zeroed, Desc: fmt.Sprintf("e%d-w%d-%s", ep.Index, j, variant)}, fp,
						func(crash *Snapshot) error {
							stats.Replayed++
							return writeCorrupt(crash, rec, z)
						})
					if err != nil || !ok {
						return stats, err
					}
				}
			}
		case FaultMisdirect:
			// A misdirected write changes the epoch mid-replay, so each state
			// forks the pre-epoch base and replays the epoch with one write
			// redirected — the expensive whole-epoch replays the class index
			// now skips with a pure XOR-delta fingerprint, no construction at
			// all. The rolling snapshot advances afterwards.
			plan := planEpoch(rolling, ep.Writes)
			buf := poolGet()
			for j := 0; j < n; j++ {
				jj := j
				rec := ep.Writes[j]
				target := misdirectTarget(rolling, rec)
				fp := plan.fullFP
				if target != rec.Block {
					// The intended block loses write j (visible only when j
					// was the block's final write)...
					if plan.last[rec.Block] == j {
						surv := blockTerm(rec.Block)
						if p := plan.prev[j]; p >= 0 {
							surv = plan.c[p]
						}
						fp ^= plan.c[j] ^ surv
					}
					// ...and the target gains its data, unless a later epoch
					// write to the target overwrites the misdirection.
					li, wrote := plan.last[target]
					if !wrote || li < j {
						data := rec.Data
						if len(data) < BlockSize {
							nb := copy(buf, data)
							clear(buf[nb:])
							data = buf
						}
						ct := BlockContribution(target, data)
						if wrote {
							fp ^= plan.c[li] ^ ct
						} else {
							fp ^= blockTerm(target) ^ ct
						}
					}
				}
				ok, err := emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: n,
					Desc: fmt.Sprintf("e%d-w%d-mis", ep.Index, j)}, fp,
					func(crash *Snapshot) error {
						for i, r := range ep.Writes {
							tgt := r.Block
							if i == jj {
								tgt = misdirectTarget(crash, r)
							}
							if err := crash.WriteBlock(tgt, r.Data); err != nil {
								return fmt.Errorf("blockdev: fault replay write seq %d: %w", r.Seq, err)
							}
							stats.Replayed++
						}
						return nil
					})
				if err != nil || !ok {
					blockPool.Put(buf)
					return stats, err
				}
			}
			blockPool.Put(buf)
			if err := replay(rolling, ep.Writes); err != nil {
				return stats, err
			}
		}
	}

	if len(epochs) == 0 {
		_, err := emit(FaultState{Kind: kind, Epoch: -1, Write: -1, Desc: "empty"},
			rolling.Fingerprint(), nil)
		return stats, err
	}
	last := epochs[len(epochs)-1]
	_, err = emit(FaultState{Kind: kind, Epoch: last.Index, Write: -1, Applied: len(last.Writes),
		Desc: fmt.Sprintf("e%d-full", last.Index)}, rolling.Fingerprint(), nil)
	return stats, err
}

// tornHasher yields the contributions of one write's torn states in sector
// order without assembling any of them. The torn block is the write's
// zero-padded data up to the tear, then the block's current contents, so
// its hash is the new-data prefix folded one sector per state into a
// running HashBytes state, then the rest of the current block hashed
// straight from a borrowed view. That splits HashBytes at sector
// boundaries, which yields the same value only where a boundary falls on
// an 8-byte word: newTornHasher returns nil for sector sizes that are not a
// multiple of 8, and the caller assembles each torn block instead.
type tornHasher struct {
	rec    Record
	sector int
	h      uint64 // hash of the block number and the torn prefix so far
	lo     int    // end of the prefix folded into h
}

func newTornHasher(rec Record, sectorSize int) *tornHasher {
	if sectorSize%8 != 0 {
		return nil
	}
	return &tornHasher{rec: rec, sector: sectorSize, h: (FNVOffset ^ uint64(rec.Block)) * FNVPrime}
}

// next folds one more sector of new data into the prefix and returns the
// contribution of the write torn there over dev's current block. It reads
// the block once, metered like the copying path's ReadInto.
func (t *tornHasher) next(dev Device) (uint64, error) {
	data, hi := t.rec.Data, t.lo+t.sector
	if end := min(len(data), hi); end > t.lo {
		words := t.lo + (end-t.lo)&^7
		t.h = HashBytes(t.h, data[t.lo:words])
		if words < end {
			// The record ends mid-word: fold that word zero-padded, as the
			// padded block holds it, not byte by byte.
			var w [8]byte
			copy(w[:], data[words:end])
			t.h = HashBytes(t.h, w[:])
			words += 8
		}
		t.lo = words
	}
	t.h = HashBytes(t.h, zeroBlock[t.lo:hi])
	t.lo = hi
	view, err := ReadView(dev, t.rec.Block)
	if err != nil {
		return 0, err
	}
	return mix64(HashBytes(t.h, view[hi:])), nil
}
