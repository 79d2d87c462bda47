package crashmonkey

import (
	"fmt"

	"b3/internal/blockdev"
)

// Fault-injection crash exploration: the orthogonal axis to bounded
// reordering. Where reorder states permute *which* whole-block writes land,
// fault states change *how* one unsynced write lands — torn at sector
// granularity, corrupted (zeroed / bit-flipped), or misdirected onto the
// wrong block (blockdev's fault iterators). The judging contract is the
// same as ExploreReorder: B3's oracle criteria are undefined for these
// mid-failure states, so each one is checked against the assumption the
// whole methodology rests on — recovery must reach a mountable image,
// at worst after fsck.

// faultOracleSaltBase keys fault verdicts in the shared disk-tier prune
// cache, salted per fault kind so sweeps of different kinds never share
// verdict entries with each other or with the reorder sweep.
const faultOracleSaltBase uint64 = 0x423346614c742121 // "B3FaLt!!"

// faultOracleSalt returns the cache salt for one fault kind.
func faultOracleSalt(kind blockdev.FaultKind) uint64 {
	h := newHasher()
	h.u64(faultOracleSaltBase)
	h.u64(uint64(kind))
	return h.h
}

// FaultKindReport summarises one fault kind's sweep of one workload.
type FaultKindReport struct {
	// Kind is the fault axis the sweep enumerated.
	Kind blockdev.FaultKind
	// States is the number of crash states constructed.
	States int
	// Checked counts states whose recovery actually ran; Pruned counts
	// states whose verdict was reused from the prune cache after
	// construction.
	Checked int
	Pruned  int
	// ClassSkipped counts states never constructed at all: the enumerator's
	// O(1) delta fingerprint matched an already-judged class, and the cached
	// verdict was tallied directly (-no-class-prune restores construction).
	ClassSkipped int
	// Mountable counts states that recovered without help; Repaired counts
	// states that needed fsck and then mounted.
	Mountable int
	Repaired  int
	// Broken lists states that neither mounted nor repaired.
	Broken []string
	// ReplayedWrites is the metered number of writes replayed to construct
	// the sweep's states (torn/corrupting/misdirected writes included).
	ReplayedWrites int64
}

// FaultReport summarises the fault-injection sweeps of one workload, one
// entry per configured kind in sweep order.
type FaultReport struct {
	// SectorSize is the torn-write granularity the sweep ran with.
	SectorSize int
	// Kinds holds the per-kind reports.
	Kinds []FaultKindReport
}

// Clean reports whether every explored state recovered or was repaired.
func (r *FaultReport) Clean() bool {
	for _, kr := range r.Kinds {
		if len(kr.Broken) > 0 {
			return false
		}
	}
	return true
}

// States returns the total number of states constructed across kinds.
func (r *FaultReport) States() int {
	n := 0
	for _, kr := range r.Kinds {
		n += kr.States
	}
	return n
}

// ReplayedWrites returns the total construction cost across kinds.
func (r *FaultReport) ReplayedWrites() int64 {
	var n int64
	for _, kr := range r.Kinds {
		n += kr.ReplayedWrites
	}
	return n
}

// ExploreFaults sweeps the fault-injection crash states of a profiled run
// for every kind in model, in the order given. When the Monkey has a
// PruneCache, byte-identical states within a kind are judged once and the
// verdict reused; verdict entries are salted per kind.
func (mk *Monkey) ExploreFaults(p *Profile, model blockdev.FaultModel) (*FaultReport, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	report := &FaultReport{SectorSize: model.Sector()}
	for _, kind := range model.Kinds {
		kr, err := mk.exploreFaultKind(p, kind, model.Sector(), mountOracle{mk}, nil)
		if err != nil {
			return nil, err
		}
		report.Kinds = append(report.Kinds, kr)
	}
	return report, nil
}

// exploreFaultKind is the one fault-injection driver: it enumerates one
// kind's state space of p and judges every state through o.
func (mk *Monkey) exploreFaultKind(p *Profile, kind blockdev.FaultKind, sector int,
	o oracle, observe func(*cachedVerdict)) (FaultKindReport, error) {
	s := mk.newSweep(p, faultOracleSalt(kind), o, observe)
	log := p.rec.Log()
	if mk.ScratchStates {
		s.fail(blockdev.ForEachFaultState(log, kind, sector,
			func(st blockdev.FaultState, apply func(blockdev.Device) error) bool {
				return s.scratchState(st.Epoch, st.Desc, scratchFaultReplayCost(s.epochs, st), apply)
			}))
	} else {
		var opts blockdev.FaultEnumOpts
		if s.classPrune() {
			opts.Seen = func(st blockdev.FaultState, fp uint64) bool {
				return s.seen(st.Epoch, st.Desc, fp) != nil
			}
		}
		stats, err := blockdev.ForEachFaultStatePruned(p.base, log, kind, sector, opts, mk.Meter,
			func(st blockdev.FaultState, crash *blockdev.Snapshot) bool {
				return s.judge(st.Epoch, st.Desc, crash) != nil
			})
		s.replayed = stats.Replayed
		s.fail(err)
	}
	if s.err != nil {
		return FaultKindReport{}, fmt.Errorf("crashmonkey: %s sweep: %w", kind, s.err)
	}
	return FaultKindReport{
		Kind: kind, States: s.states,
		Checked: s.checked, Pruned: s.pruned, ClassSkipped: s.classSkipped,
		Mountable: s.mountable, Repaired: s.repaired, Broken: s.broken,
		ReplayedWrites: s.replayed,
	}, nil
}

// scratchFaultReplayCost is the number of writes the from-scratch engine
// replays to construct st: every write of the epochs before it, the
// in-flight prefix, and the injected torn/corrupting write when the state
// carries one (a misdirected write is part of the prefix count).
func scratchFaultReplayCost(epochs []blockdev.Epoch, st blockdev.FaultState) int64 {
	var n int64
	for e := 0; e < st.Epoch && e < len(epochs); e++ {
		n += int64(len(epochs[e].Writes))
	}
	if st.Epoch >= 0 && st.Epoch < len(epochs) {
		n += int64(st.Applied)
		if st.Write >= 0 && st.Kind != blockdev.FaultMisdirect {
			n++
		}
	}
	return n
}
