package campaign

import (
	"sync/atomic"
	"time"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/corpus"
	"b3/internal/crashmonkey"
	"b3/internal/kvoracle"
	"b3/internal/report"
)

// Stats is the campaign outcome.
type Stats struct {
	FSName    string
	Generated int64
	Tested    int64
	Failed    int64
	Errors    int64

	// Shard and NumShards echo the residue-class partition the campaign
	// ran with (0/0 when unsharded): this Stats covers only workloads with
	// seq mod NumShards == Shard.
	Shard     int
	NumShards int

	// Crash-state accounting: states constructed, oracle checks actually
	// run, and checks skipped by representative pruning (split by tier).
	StatesTotal   int64
	StatesChecked int64
	StatesPruned  int64
	PrunedDisk    int64
	PrunedTree    int64
	// DistinctStates is the number of distinct disk-tier (state, oracle)
	// pairs the prune cache ended up holding (0 when pruning is off).
	// Tree-tier entries are a subset view and not included.
	DistinctStates int64
	// PruneCap is the per-tier cache bound the campaign ran with (0 when
	// pruning is off); DiskEvictions/TreeEvictions count entries dropped
	// to stay under it.
	PruneCap      int
	DiskEvictions int64
	TreeEvictions int64

	// Reorder accounting (zero when Config.Reorder is 0). ReorderBound is
	// the bound the campaign ran with; ReorderStates counts the
	// bounded-reordering crash states enumerated, ReorderChecked the
	// recoveries actually run, ReorderPruned the verdicts reused from the
	// prune cache after construction, and ReorderBroken the states that
	// neither mounted nor were repaired by fsck — violations of the
	// core-mechanism assumption. ReorderClassSkipped counts states never
	// constructed (enumeration-time class hit); ReorderCommuteSkipped
	// counts drop-sets skipped as provably identical to an earlier
	// canonical representative. Both are included in ReorderStates.
	ReorderBound          int
	ReorderStates         int64
	ReorderChecked        int64
	ReorderPruned         int64
	ReorderClassSkipped   int64
	ReorderCommuteSkipped int64
	ReorderBroken         int64

	// Fault-injection accounting (empty when Config.Faults is disabled).
	// FaultSector is the torn-write sector granularity the campaign ran
	// with; FaultKinds holds one row per configured kind in canonical kind
	// order, mirroring the reorder counters per kind.
	FaultSector int
	FaultKinds  []FaultKindStats

	// KVClasses tallies the application-oracle verdicts of a KV campaign
	// (all zero for the file-level workload family): every crash state the
	// application could recover on — checkpoint, reorder, and fault states
	// combined — classified legal, lost-acknowledged-write,
	// resurrected-delete, or unreplayable. FS-level broken states render no
	// application verdict and are excluded (they stay in the Broken
	// counters). The totals are deterministic per workload, so they are
	// shard-stable and resume/merge exactly.
	KVClasses kvoracle.Counts

	// ReplayedWrites counts the recorded writes replayed to construct
	// every crash state of the campaign (checkpoint sweeps plus reorder
	// sweeps, resumed records folded in). ReplayedWrites/states is the
	// construction cost the incremental cursor engine minimises.
	ReplayedWrites int64
	// BlocksRead and BytesAllocated are the live BlockMeter counters:
	// block reads served while mounting/checking states, and buffer bytes
	// the block layer had to allocate (pooled and borrowed IO is free).
	// Like the duration aggregates they cover live workloads only.
	BlocksRead     int64
	BytesAllocated int64

	// Resumed counts workloads whose verdicts were folded in from the
	// corpus shard instead of being re-tested; CorpusPath is the shard.
	Resumed    int64
	CorpusPath string

	Groups      []*report.Group
	FreshGroups []*report.Group
	KnownGroups []*report.Group

	Elapsed time.Duration
	// GenDur is the wall time of the campaign's one enumeration, feeding the
	// worker pool included; every row of a matrix carries the same value.
	GenDur      time.Duration
	ProfileDur  time.Duration
	ReplayDur   time.Duration
	CheckDur    time.Duration
	MaxDirty    int64
	TotalDirty  int64
	DirtySample int64
}

// GenRate returns workloads generated per second (§6.4) by the campaign's
// one enumeration — the same on every matrix row, not a per-row share.
func (s *Stats) GenRate() float64 {
	if s.GenDur <= 0 {
		return 0
	}
	return float64(s.Generated) / s.GenDur.Seconds()
}

// TestRate returns workloads tested per second.
func (s *Stats) TestRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Tested) / s.Elapsed.Seconds()
}

// PruneRate returns the fraction of crash states whose oracle check was
// skipped.
func (s *Stats) PruneRate() float64 {
	if s.StatesTotal == 0 {
		return 0
	}
	return float64(s.StatesPruned) / float64(s.StatesTotal)
}

// ReplayPerState reports the mean number of writes replayed to construct one
// crash state (checkpoint, reorder, and fault states combined) — the
// construction cost the incremental cursor engine minimises.
func (s *Stats) ReplayPerState() float64 {
	states := s.StatesTotal + s.ReorderStates + s.FaultStates()
	if states == 0 {
		return 0
	}
	return float64(s.ReplayedWrites) / float64(states)
}

// FaultKindStats is the campaign-level accounting of one fault kind's
// sweeps: states enumerated, recoveries run, verdicts reused from the prune
// cache after construction, states never constructed thanks to an
// enumeration-time class hit, and states that neither mounted nor were
// repaired.
type FaultKindStats struct {
	Kind         string
	States       int64
	Checked      int64
	Pruned       int64
	ClassSkipped int64
	Broken       int64
}

// FaultStates returns the total fault-injection states across kinds.
func (s *Stats) FaultStates() int64 {
	var n int64
	for _, f := range s.FaultKinds {
		n += f.States
	}
	return n
}

// FaultBroken returns the total broken fault states across kinds.
func (s *Stats) FaultBroken() int64 {
	var n int64
	for _, f := range s.FaultKinds {
		n += f.Broken
	}
	return n
}

// AvgDirtyBytes reports the mean COW overlay footprint per workload (§6.5).
func (s *Stats) AvgDirtyBytes() int64 {
	if s.DirtySample == 0 {
		return 0
	}
	return s.TotalDirty / s.DirtySample
}

// counters aggregates worker-side statistics.
type counters struct {
	tested, failed, errs          atomic.Int64
	resumed                       atomic.Int64
	statesTotal, statesChecked    atomic.Int64
	statesPruned                  atomic.Int64
	prunedDisk, prunedTree        atomic.Int64
	reorderStates, reorderChecked atomic.Int64
	reorderPruned, reorderBroken  atomic.Int64
	reorderClassSkip              atomic.Int64
	reorderCommuteSkip            atomic.Int64
	faultStates, faultChecked     [blockdev.NumFaultKinds]atomic.Int64
	faultPruned, faultBroken      [blockdev.NumFaultKinds]atomic.Int64
	faultClassSkip                [blockdev.NumFaultKinds]atomic.Int64
	kvLegal, kvLostAck            atomic.Int64
	kvResurrected, kvUnreplay     atomic.Int64
	replayedWrites                atomic.Int64
	profNS, replayNS, checkNS     atomic.Int64
	dirtyTot, dirtyN, dirtyMax    atomic.Int64
}

// into copies the verdict and state counters into stats. Shared by the
// live campaign path (fsRun.finish) and the corpus merge layer, so both
// report through identical accounting.
func (cnt *counters) into(stats *Stats) {
	stats.Tested = cnt.tested.Load()
	stats.Failed = cnt.failed.Load()
	stats.Errors = cnt.errs.Load()
	stats.Resumed = cnt.resumed.Load()
	stats.StatesTotal = cnt.statesTotal.Load()
	stats.StatesChecked = cnt.statesChecked.Load()
	stats.StatesPruned = cnt.statesPruned.Load()
	stats.PrunedDisk = cnt.prunedDisk.Load()
	stats.PrunedTree = cnt.prunedTree.Load()
	stats.ReorderStates = cnt.reorderStates.Load()
	stats.ReorderChecked = cnt.reorderChecked.Load()
	stats.ReorderPruned = cnt.reorderPruned.Load()
	stats.ReorderClassSkipped = cnt.reorderClassSkip.Load()
	stats.ReorderCommuteSkipped = cnt.reorderCommuteSkip.Load()
	stats.ReorderBroken = cnt.reorderBroken.Load()
	stats.ReplayedWrites = cnt.replayedWrites.Load()
	stats.FaultKinds = nil
	for k := 0; k < blockdev.NumFaultKinds; k++ {
		fs := FaultKindStats{
			Kind:         blockdev.FaultKind(k).String(),
			States:       cnt.faultStates[k].Load(),
			Checked:      cnt.faultChecked[k].Load(),
			Pruned:       cnt.faultPruned[k].Load(),
			ClassSkipped: cnt.faultClassSkip[k].Load(),
			Broken:       cnt.faultBroken[k].Load(),
		}
		if fs.States+fs.Checked+fs.Pruned+fs.ClassSkipped+fs.Broken > 0 {
			stats.FaultKinds = append(stats.FaultKinds, fs)
		}
	}
	stats.KVClasses = kvoracle.Counts{
		Legal:        cnt.kvLegal.Load(),
		LostAck:      cnt.kvLostAck.Load(),
		Resurrected:  cnt.kvResurrected.Load(),
		Unreplayable: cnt.kvUnreplay.Load(),
	}
}

// addKV folds one sweep's class counts into the campaign counters.
func (cnt *counters) addKV(c kvoracle.Counts) {
	cnt.kvLegal.Add(c.Legal)
	cnt.kvLostAck.Add(c.LostAck)
	cnt.kvResurrected.Add(c.Resurrected)
	cnt.kvUnreplay.Add(c.Unreplayable)
}

// foldRecord replays one recorded workload verdict into counters and the
// report stream: state counts and reports fold in even for workloads that
// later errored. Timing and dirty-byte aggregates are deliberately not
// restored — records carry verdicts, not durations — so Summary averages
// those over live workloads only. Shared by campaign resume (fsRun) and the
// multi-shard merge layer (MergeStats), so both fold through identical
// accounting.
func foldRecord(rec *corpus.WorkloadRecord, fsName string, noPrune bool,
	cnt *counters, emit func(*report.Report)) {

	cnt.statesTotal.Add(int64(rec.States))
	cnt.reorderStates.Add(int64(rec.RStates))
	cnt.reorderBroken.Add(int64(rec.RBroken))
	cnt.replayedWrites.Add(rec.Replayed)
	for _, f := range rec.Faults {
		k, err := blockdev.ParseFaultKind(f.Kind)
		if err != nil {
			continue // a future kind this build does not know; leave it out
		}
		cnt.faultStates[k].Add(int64(f.States))
		cnt.faultBroken[k].Add(int64(f.Broken))
		if noPrune {
			cnt.faultChecked[k].Add(int64(f.Checked) + int64(f.Pruned) + int64(f.ClassSkip))
		} else {
			cnt.faultChecked[k].Add(int64(f.Checked))
			cnt.faultPruned[k].Add(int64(f.Pruned))
			cnt.faultClassSkip[k].Add(int64(f.ClassSkip))
		}
	}
	// Commute skips are cache-independent (the enumerator proves the states
	// byte-identical), so they fold as skips even into a no-prune run.
	cnt.reorderCommuteSkip.Add(int64(rec.RCommuteSkip))
	if rec.KV != nil {
		cnt.addKV(kvoracle.Counts{
			Legal:        rec.KV.Legal,
			LostAck:      rec.KV.LostAck,
			Resurrected:  rec.KV.Resurrected,
			Unreplayable: rec.KV.Unreplayable,
		})
	}
	if noPrune {
		// The shard may have been written with pruning on (prune mode is
		// excluded from the config fingerprint on purpose). A no-prune run
		// must keep its StatesChecked == StatesTotal invariant, so recorded
		// prune-skips — post-construction and enumeration-time alike — count
		// as checked here: their verdicts were established, just via the
		// cache.
		cnt.statesChecked.Add(int64(rec.Checked) + int64(rec.Pruned))
		cnt.reorderChecked.Add(int64(rec.RChecked) + int64(rec.RPruned) + int64(rec.RClassSkip))
	} else {
		cnt.statesChecked.Add(int64(rec.Checked))
		cnt.statesPruned.Add(int64(rec.Pruned))
		cnt.reorderChecked.Add(int64(rec.RChecked))
		cnt.reorderPruned.Add(int64(rec.RPruned))
		cnt.reorderClassSkip.Add(int64(rec.RClassSkip))
	}
	if rec.Errored || rec.Verdict == corpus.VerdictError {
		cnt.errs.Add(1)
	} else if rec.States > 0 {
		cnt.tested.Add(1)
	}
	if rec.Verdict == corpus.VerdictBuggy {
		cnt.failed.Add(1)
	}
	for _, rr := range rec.Reports {
		findings := make([]crashmonkey.Finding, 0, len(rr.Findings))
		for _, f := range rr.Findings {
			findings = append(findings, crashmonkey.Finding{
				Consequence: bugs.Consequence(f.Consequence),
				Path:        f.Path,
				Detail:      f.Detail,
			})
		}
		skeleton := rr.Skeleton
		if skeleton == "" {
			skeleton = rec.Skeleton
		}
		emit(&report.Report{
			FSName:      fsName,
			WorkloadID:  rec.ID,
			Skeleton:    skeleton,
			Consequence: bugs.Consequence(rr.Primary),
			Findings:    findings,
			Workload:    rec.Workload,
		})
	}
}
