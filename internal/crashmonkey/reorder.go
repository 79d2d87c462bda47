package crashmonkey

import (
	"fmt"

	"b3/internal/blockdev"
)

// Bounded-reordering crash exploration: the extension the paper leaves open
// (§4.4 limitation 2: "it does not simulate a crash in the middle of a
// file-system operation and it does not re-order IO requests ... the
// implicit assumption is that the core crash-consistency mechanism, such as
// journaling or copy-on-write, is working correctly").
//
// The recorded IO stream is partitioned into epochs at write barriers
// (blockdev.Epochs — both flushes and persistence checkpoints close an
// epoch). A crash state is the fully-applied barriered prefix plus either an
// in-order prefix of the in-flight epoch or the full epoch with at most k
// writes dropped; k = 1 reproduces the legacy drop-one-write sweep, larger
// bounds open new reordered states.
//
// B3's correctness criteria are undefined mid-operation, so these states are
// not checked against the oracle. What *is* checked is exactly the
// assumption B3 rests on: from every such state the file system must recover
// to a mountable image (or at worst be repairable by fsck). ReorderReport
// quantifies that, and the Monkey's PruneCache deduplicates byte-identical
// states (the same barriered prefix recurs across the whole sweep, and
// dropping an epoch's last write equals the prefix one shorter), which is
// what makes k >= 2 sweeps affordable.

// reorderOracleSalt keys reorder verdicts in the shared disk-tier prune
// cache. Reorder states are judged without an oracle, so the constant stands
// in for the expectation fingerprint and keeps the entries disjoint from the
// oracle-checked ones.
const reorderOracleSalt uint64 = 0x4233526571756572 // "B3Requer"

// ReorderReport summarises a bounded-reordering crash sweep of one workload.
type ReorderReport struct {
	// Bound is the reorder bound k the sweep ran with.
	Bound int
	sweepCounts
	// Deprecated: CommuteSkipped is always 0. The enumerator no longer
	// skips drop-sets on its own; class pruning answers them.
	CommuteSkipped int
}

// ExploreReorder sweeps the bounded-reordering crash states of a profiled
// run at bound k (k = 0 explores only the in-order write prefixes). When the
// Monkey has a PruneCache, byte-identical states are judged once and the
// verdict is reused — identical Broken verdicts, strictly fewer recoveries
// run. Every state is judged by the profile's sweep oracle: recoverability
// alone for an ACE workload; for a KV workload, the expected-state oracle of
// the in-flight epoch's persistence interval, whose fingerprint is part of
// the class key, so the sweep prunes at enumeration time just the same.
func (mk *Monkey) ExploreReorder(p *Profile, k int) (*ReorderReport, error) {
	if k < 0 {
		return nil, fmt.Errorf("crashmonkey: negative reorder bound %d", k)
	}
	s := mk.newSweep(p, reorderOracleSalt)
	log := p.rec.Log()

	if mk.ScratchStates {
		blockdev.ForEachReorderState(log, k, func(st blockdev.ReorderState, apply func(blockdev.Device) (int64, error)) bool {
			return named(s, st, s.scratchState(st.Interval, apply))
		})
	} else {
		var opts blockdev.ReorderEnumOpts
		if mk.Prune != nil {
			opts.Seen = func(st blockdev.ReorderState, fp uint64) bool {
				return named(s, st, s.seen(st.Interval, fp, &s.ClassSkipped))
			}
		}
		stats, err := blockdev.ForEachReorderStatePruned(p.base, log, k, opts, mk.Meter,
			func(st blockdev.ReorderState, crash *blockdev.Snapshot) bool {
				return named(s, st, s.judge(st.Interval, crash))
			})
		s.ReplayedWrites = stats.Replayed
		s.fail(err)
	}
	if s.err != nil {
		return nil, s.err
	}
	return &ReorderReport{Bound: k, sweepCounts: s.sweepCounts}, nil
}
