package campaign

import (
	"slices"
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
	// run, and checks skipped by representative pruning (split by tier:
	// PrunedDisk + PrunedTree == StatesPruned, resumed and merged records
	// included).
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
	// constructed (enumeration-time class hit), included in ReorderStates.
	ReorderBound        int
	ReorderStates       int64
	ReorderChecked      int64
	ReorderPruned       int64
	ReorderClassSkipped int64
	ReorderBroken       int64
	// Deprecated: ReorderCommuteSkipped is always 0; the reorder sweep no
	// longer skips drop-sets outside class pruning.
	ReorderCommuteSkipped int64

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

// fold accounts one workload's corpus record into the statistics and
// returns reports extended by the record's bug reports. It is the only way
// a workload outcome reaches Stats — live (fsRun.record), resumed
// (fsRun.needs) and merged (MergeStats) alike — so the three are accounted
// by the same code. State counts and reports fold in even for workloads
// that later errored. Timing and dirty-byte aggregates are not part of a
// record; fsRun.record adds them for live workloads only.
func (s *Stats) fold(rec *corpus.WorkloadRecord, noPrune bool, reports []*report.Report) []*report.Report {
	s.StatesTotal += int64(rec.States)
	s.ReorderStates += int64(rec.RStates)
	s.ReorderBroken += int64(rec.RBroken)
	s.ReplayedWrites += rec.Replayed
	if noPrune {
		// The shard may have been written with pruning on (prune mode is
		// excluded from the config fingerprint on purpose). A no-prune run
		// must keep its StatesChecked == StatesTotal invariant, so recorded
		// cache hits — Pruned and ClassSkipped alike — count as checked
		// here: their verdicts were established, just via the cache.
		s.StatesChecked += int64(rec.Checked + rec.Pruned)
		s.ReorderChecked += int64(rec.RChecked + rec.RPruned + rec.RClassSkip)
	} else {
		s.StatesChecked += int64(rec.Checked)
		s.StatesPruned += int64(rec.Pruned)
		// Records written before the tier split carry no PrunedTree and
		// count as disk-tier.
		s.PrunedTree += int64(rec.PrunedTree)
		s.PrunedDisk += int64(rec.Pruned - rec.PrunedTree)
		s.ReorderChecked += int64(rec.RChecked)
		s.ReorderPruned += int64(rec.RPruned)
		s.ReorderClassSkipped += int64(rec.RClassSkip)
	}
	for _, f := range rec.Faults {
		k, err := blockdev.ParseFaultKind(f.Kind)
		if err != nil || f.States == 0 {
			continue // a future kind this build does not know, or nothing swept
		}
		row := s.faultRow(k)
		row.States += int64(f.States)
		row.Broken += int64(f.Broken)
		if noPrune {
			row.Checked += int64(f.Checked + f.Pruned + f.ClassSkip)
		} else {
			row.Checked += int64(f.Checked)
			row.Pruned += int64(f.Pruned)
			row.ClassSkipped += int64(f.ClassSkip)
		}
	}
	if rec.KV != nil {
		s.KVClasses.Merge(kvoracle.Counts(*rec.KV))
	}
	// A workload with no persistence point is neither tested nor errored.
	if rec.Errored || rec.Verdict == corpus.VerdictError {
		s.Errors++
	} else if rec.States > 0 {
		s.Tested++
	}
	if rec.Verdict == corpus.VerdictBuggy {
		s.Failed++
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
		reports = append(reports, &report.Report{
			FSName:      s.FSName,
			WorkloadID:  rec.ID,
			Skeleton:    skeleton,
			Consequence: bugs.Consequence(rr.Primary),
			Findings:    findings,
			Workload:    rec.Workload,
		})
	}
	return reports
}

// faultRow returns kind k's accounting row, inserting an empty one in kind
// order when there is none yet: a live campaign starts with a row per
// configured kind, a merge learns the kinds from the records.
func (s *Stats) faultRow(k blockdev.FaultKind) *FaultKindStats {
	i := 0
	for ; i < len(s.FaultKinds); i++ {
		if row, _ := blockdev.ParseFaultKind(s.FaultKinds[i].Kind); row == k {
			return &s.FaultKinds[i]
		} else if row > k {
			break
		}
	}
	s.FaultKinds = slices.Insert(s.FaultKinds, i, FaultKindStats{Kind: k.String()})
	return &s.FaultKinds[i]
}

// group sets the bug groups of reports (§5.3) and splits them against the
// known-bug database db; a nil db leaves every group fresh.
func (s *Stats) group(reports []*report.Report, db *report.KnownDB) {
	s.Groups = report.GroupReports(reports)
	s.FreshGroups, s.KnownGroups = s.Groups, nil
	if db != nil {
		s.FreshGroups, s.KnownGroups = db.Split(s.Groups)
	}
}
