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

// ReorderEpoch is the per-epoch accounting of one sweep.
type ReorderEpoch struct {
	// Writes is the number of in-flight writes the epoch holds.
	Writes int
	// States is the number of crash states constructed with this epoch in
	// flight (the final fully-replayed state counts toward the last epoch).
	States int
	// Broken counts this epoch's states that neither mounted nor repaired.
	Broken int
}

// ReorderReport summarises a bounded-reordering crash sweep of one workload.
type ReorderReport struct {
	// Bound is the reorder bound k the sweep ran with.
	Bound int
	// States is the number of crash states constructed.
	States int
	// Checked counts states whose recovery actually ran; Pruned counts
	// states whose verdict was reused from the prune cache (byte-identical
	// disk contents already judged) after construction.
	Checked int
	Pruned  int
	// ClassSkipped counts states never constructed at all: the enumerator's
	// O(1) delta fingerprint matched an already-judged class, and the cached
	// verdict was tallied directly (NoClassPrune restores construction).
	ClassSkipped int
	// CommuteSkipped counts drop-set states skipped as provably
	// byte-identical to an earlier canonical representative, tallied with
	// the representative's verdict (NoCommutePrune restores them).
	CommuteSkipped int
	// Mountable counts states that recovered without help; Repaired counts
	// states that needed fsck and then mounted.
	Mountable int
	Repaired  int
	// Broken lists states that neither mounted nor repaired: violations of
	// the core-mechanism assumption.
	Broken []string
	// ReplayedWrites is the metered number of recorded writes replayed to
	// construct the sweep's states. The incremental engine replays each
	// epoch once per sweep plus the in-flight deltas; the scratch engine
	// re-replays every prior epoch for every state.
	ReplayedWrites int64
	// PerEpoch is the accounting per IO epoch, in stream order.
	PerEpoch []ReorderEpoch
}

// Clean reports whether every explored state recovered or was repaired.
func (r *ReorderReport) Clean() bool { return len(r.Broken) == 0 }

// ExploreReorder sweeps the bounded-reordering crash states of a profiled
// run at bound k (k = 0 explores only the in-order write prefixes). When the
// Monkey has a PruneCache, byte-identical states are judged once and the
// verdict is reused — identical Broken verdicts, strictly fewer recoveries
// run.
func (mk *Monkey) ExploreReorder(p *Profile, k int) (*ReorderReport, error) {
	return mk.exploreReorder(p, k, mountOracle{mk}, nil)
}

// exploreReorder is the one bounded-reordering driver: it enumerates the
// state space of p at bound k and judges every state through o.
func (mk *Monkey) exploreReorder(p *Profile, k int, o oracle, observe func(*cachedVerdict)) (*ReorderReport, error) {
	if k < 0 {
		return nil, fmt.Errorf("crashmonkey: negative reorder bound %d", k)
	}
	s := mk.newSweep(p, reorderOracleSalt, o, observe)
	s.perEpoch = make([]ReorderEpoch, len(s.epochs))
	for i, ep := range s.epochs {
		s.perEpoch[i].Writes = len(ep.Writes)
	}
	log := p.rec.Log()

	if mk.ScratchStates {
		blockdev.ForEachReorderState(log, k, func(st blockdev.ReorderState, apply func(blockdev.Device) (int64, error)) bool {
			return s.scratchState(st.Epoch, st.Desc, apply)
		})
	} else {
		// Enumeration-time pruning: class hits are settled from the O(1)
		// delta fingerprint before any state is built, and commute skips
		// reuse the verdict their canonical representative was given.
		commute := !mk.NoCommutePrune
		// reps maps drop-set Desc -> verdict for the current epoch:
		// canonical representatives always precede their skips within one
		// epoch (and share its expectation), so the map resets on epoch
		// change.
		var reps map[string]*cachedVerdict
		repEpoch := -2
		repsFor := func(epoch int) map[string]*cachedVerdict {
			if epoch != repEpoch {
				reps = make(map[string]*cachedVerdict)
				repEpoch = epoch
			}
			return reps
		}
		// settled remembers a settled drop-set's verdict for the skips it may
		// represent, and reports whether the sweep goes on (v is nil on a
		// class miss or once the sweep has failed).
		settled := func(st blockdev.ReorderState, v *cachedVerdict) bool {
			if v != nil && commute && st.Dropped != nil {
				repsFor(st.Epoch)[st.Desc] = v
			}
			return v != nil
		}
		var opts blockdev.ReorderEnumOpts
		if commute {
			opts.Commute = true
			opts.OnCommuteSkip = func(st blockdev.ReorderState, repDesc string) {
				v := repsFor(st.Epoch)[repDesc]
				if v == nil {
					s.fail(fmt.Errorf("crashmonkey: commute representative %q of %q has no verdict", repDesc, st.Desc))
					return
				}
				s.settle(st.Epoch, st.Desc, v, &s.commuteSkipped)
			}
		}
		// fp is the fingerprint Seen was last consulted with — that of the
		// state fn builds next — so judge keys on it without hashing the fork.
		var fp uint64
		if mk.Prune != nil {
			opts.Seen = func(st blockdev.ReorderState, f uint64) bool {
				fp = f
				return s.classPrune() && settled(st, s.seen(st.Epoch, st.Desc, f))
			}
		}
		stats, err := blockdev.ForEachReorderStatePruned(p.base, log, k, opts, mk.Meter,
			func(st blockdev.ReorderState, crash *blockdev.Snapshot) bool {
				return s.err == nil && settled(st, s.judge(st.Epoch, st.Desc, fp, crash))
			})
		s.replayed = stats.Replayed
		s.fail(err)
	}
	if s.err != nil {
		return nil, s.err
	}
	return &ReorderReport{
		Bound: k, States: s.states,
		Checked: s.checked, Pruned: s.pruned,
		ClassSkipped: s.classSkipped, CommuteSkipped: s.commuteSkipped,
		Mountable: s.mountable, Repaired: s.repaired, Broken: s.broken,
		ReplayedWrites: s.replayed, PerEpoch: s.perEpoch,
	}, nil
}
