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
	sweepCounts
}

// FaultReport summarises the fault-injection sweeps of one workload, one
// entry per configured kind in sweep order.
type FaultReport struct {
	// SectorSize is the torn-write granularity the sweep ran with.
	SectorSize int
	// Kinds holds the per-kind reports.
	Kinds []FaultKindReport
}

// ExploreFaults sweeps the fault-injection crash states of a profiled run
// for every kind in model, in the order given. When the Monkey has a
// PruneCache, byte-identical states within a kind are judged once and the
// verdict reused; verdict entries are salted per kind. Every state is judged
// by the profile's sweep oracle, as in ExploreReorder.
func (mk *Monkey) ExploreFaults(p *Profile, model blockdev.FaultModel) (*FaultReport, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	report := &FaultReport{SectorSize: model.Sector(), Kinds: make([]FaultKindReport, 0, len(model.Kinds))}
	for _, kind := range model.Kinds {
		kr, err := mk.exploreFaultKind(p, kind, model.Sector())
		if err != nil {
			return nil, err
		}
		report.Kinds = append(report.Kinds, kr)
	}
	return report, nil
}

// exploreFaultKind enumerates one kind's state space of p and judges every
// state through the profile's sweep oracle.
func (mk *Monkey) exploreFaultKind(p *Profile, kind blockdev.FaultKind, sector int) (FaultKindReport, error) {
	s := mk.newSweep(p, faultOracleSalt(kind))
	log := p.rec.Log()
	if mk.ScratchStates {
		s.fail(blockdev.ForEachFaultState(log, kind, sector,
			func(st blockdev.FaultState, apply func(blockdev.Device) (int64, error)) bool {
				return named(s, st, s.scratchState(st.Interval, apply))
			}))
	} else {
		var opts blockdev.FaultEnumOpts
		if mk.Prune != nil {
			opts.Seen = func(st blockdev.FaultState, fp uint64) bool {
				return named(s, st, s.seen(st.Interval, fp, &s.ClassSkipped))
			}
		}
		stats, err := blockdev.ForEachFaultStatePruned(p.base, log, kind, sector, opts, mk.Meter,
			func(st blockdev.FaultState, crash *blockdev.Snapshot) bool {
				return named(s, st, s.judge(st.Interval, crash))
			})
		s.ReplayedWrites = stats.Replayed
		s.fail(err)
	}
	if s.err != nil {
		return FaultKindReport{}, fmt.Errorf("crashmonkey: %s sweep: %w", kind, s.err)
	}
	return FaultKindReport{Kind: kind, sweepCounts: s.sweepCounts}, nil
}
