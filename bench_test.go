// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus ablations for the design choices B3 argues for
// (§4.1/§4.3). EXPERIMENTS.md records paper-vs-measured for each.
package b3_test

import (
	"fmt"
	"runtime"
	"testing"

	"b3"
	"b3/internal/ace"
	"b3/internal/bugs"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/report"
	"b3/internal/study"
	"b3/internal/workload"
	"b3/internal/xfstests"
)

// ---- Table 1 / Table 2: the §3 bug study --------------------------------

func BenchmarkTable1BugStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := study.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Examples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := study.Table2(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- Figure 1: the btrfs unmountable bug ---------------------------------

func BenchmarkFigure1Workload(b *testing.B) {
	fs, err := fsmake.AtVersion("logfs", bugs.MustVersion("4.15"))
	if err != nil {
		b.Fatal(err)
	}
	w := mustParse(b, "fig1", `
mkdir /A
creat /A/foo
link /A/foo /A/bar
sync
unlink /A/bar
creat /A/bar
fsync /A/bar
`)
	mk := &crashmonkey.Monkey{FS: fs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mk.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mountable {
			b.Fatal("Figure 1 bug did not reproduce")
		}
	}
}

// ---- Figure 4: ACE generation phases ---------------------------------------

// BenchmarkFigure4Phases measures the full 4-phase generation pipeline
// (skeleton -> parameters -> persistence points -> dependencies) per
// workload produced.
func BenchmarkFigure4Phases(b *testing.B) {
	bounds := ace.Default(2)
	b.ReportAllocs()
	emitted := 0
	for emitted < b.N {
		_, err := ace.New(bounds).Generate(func(w *workload.Workload) bool {
			emitted++
			return emitted < b.N
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(emitted), "workloads")
}

// ---- §6.4: ACE generation rate (paper: ~150 workloads/s) ------------------

func BenchmarkAceGenerationRate(b *testing.B) {
	bounds := ace.Default(1)
	var built int64
	for i := 0; i < b.N; i++ {
		if _, err := ace.New(bounds).Generate(func(*workload.Workload) bool {
			built++
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(built)/b.Elapsed().Seconds(), "workloads/s")
}

// ---- §6.3 / Figure 3: CrashMonkey phase latencies --------------------------

var phaseWorkload = `
mkdir /A
creat /A/foo
write /A/foo 0 16384
fsync /A/foo
link /A/foo /A/bar
rename /A/foo /A/baz
sync
`

// BenchmarkCrashMonkeyProfile is phase 1 of Figure 3: execute the workload
// while recording block IO and capturing oracles (paper: dominated by
// kernel mount delays; here µs-scale, same breakdown shape).
func BenchmarkCrashMonkeyProfile(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "phase", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := mk.ProfileWorkload(w)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}

// BenchmarkCrashMonkeyCheck is phase 3: the AutoChecker's read and write
// checks (paper: ~20ms).
func BenchmarkCrashMonkeyCheck(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "phase", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mk.TestCheckpoint(p, p.Checkpoints())
		if err != nil {
			b.Fatal(err)
		}
		if res.Buggy() {
			b.Fatal("unexpected findings")
		}
	}
}

// BenchmarkCrashMonkeyEndToEnd is the full per-workload pipeline (paper:
// 4.6s end-to-end, 84% of it kernel mount delays absent here).
func BenchmarkCrashMonkeyEndToEnd(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "phase", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 4: per-profile campaign throughput ------------------------------

func benchCampaign(b *testing.B, profile b3.ProfileName, sample int64) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		b.Fatal(err)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var states int64
	for i := 0; i < b.N; i++ {
		stats, err := b3.RunCampaign(b3.Campaign{
			FS:           fs,
			Profile:      profile,
			SampleEvery:  sample,
			MaxWorkloads: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
		states += stats.StatesTotal
		b.ReportMetric(stats.TestRate(), "workloads/s")
		// Disk-tier hits are classified at enumeration time and never
		// constructed; tree-tier hits still mount, so construction covers
		// checked + tree-pruned states.
		b.ReportMetric(float64(stats.StatesChecked+stats.PrunedTree), "constructed-states")
		b.ReportMetric(float64(stats.PrunedDisk), "class-skipped-states")
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if states > 0 {
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
	}
}

func BenchmarkTable4Seq1(b *testing.B)         { benchCampaign(b, b3.Seq1, 1) }
func BenchmarkTable4Seq2(b *testing.B)         { benchCampaign(b, b3.Seq2, 1) }
func BenchmarkTable4Seq3Data(b *testing.B)     { benchCampaign(b, b3.Seq3Data, 1) }
func BenchmarkTable4Seq3Metadata(b *testing.B) { benchCampaign(b, b3.Seq3Metadata, 1) }
func BenchmarkTable4Seq3Nested(b *testing.B)   { benchCampaign(b, b3.Seq3Nested, 1) }

// ---- Table 5: the new-bug campaign ----------------------------------------

func BenchmarkTable5Seq1Campaign(b *testing.B) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		stats, err := b3.RunCampaign(b3.Campaign{FS: fs, Profile: b3.Seq1, DedupKnown: true})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Failed == 0 {
			b.Fatal("seq-1 campaign must find the single-op Table 5 bugs")
		}
		b.ReportMetric(float64(len(stats.FreshGroups)), "bug-groups")
	}
}

// ---- Representative crash-state pruning -------------------------------------

// benchPruningSeq2 runs a bounded seq-2 campaign in one of three modes so
// EXPERIMENTS.md can compare them: exhaustive testing with pruning
// (default), exhaustive without pruning (NoPrune cross-check), and the
// paper's §5.3 final-checkpoint-only strategy. Reported metrics: oracle
// checks actually run vs crash states constructed.
func benchPruningSeq2(b *testing.B, noPrune, finalOnly bool) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		b.Fatal(err)
	}
	bounds := ace.Default(2)
	bounds.Ops = []workload.OpKind{workload.OpCreat, workload.OpLink,
		workload.OpRename, workload.OpFalloc}
	for i := 0; i < b.N; i++ {
		stats, err := b3.RunCampaign(b3.Campaign{
			FS:           fs,
			Bounds:       &bounds,
			SampleEvery:  3,
			MaxWorkloads: 30000,
			NoPrune:      noPrune,
			FinalOnly:    finalOnly,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.StatesTotal), "states")
		b.ReportMetric(float64(stats.StatesChecked), "checks")
		b.ReportMetric(float64(stats.StatesPruned), "pruned")
		b.ReportMetric(float64(len(stats.Groups)), "bug-groups")
	}
}

func BenchmarkPruningSeq2(b *testing.B)          { benchPruningSeq2(b, false, false) }
func BenchmarkPruningSeq2NoPrune(b *testing.B)   { benchPruningSeq2(b, true, false) }
func BenchmarkPruningSeq2FinalOnly(b *testing.B) { benchPruningSeq2(b, true, true) }

// BenchmarkPruneCapEvictionPressure runs the same bounded seq-2 sweep with
// the prune cache capped far below the working set: the cache churns (high
// eviction count), memory stays bounded at the cap, and the bug-group set
// is identical to the uncapped run — the trade is re-checking, never
// verdicts. EXPERIMENTS.md records checks/evictions at each cap.
func BenchmarkPruneCapEvictionPressure(b *testing.B) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		b.Fatal(err)
	}
	bounds := ace.Default(2)
	bounds.Ops = []workload.OpKind{workload.OpCreat, workload.OpLink,
		workload.OpRename, workload.OpFalloc}
	for _, cap := range []int{64, 1024, crashmonkey.DefaultPruneCap} {
		b.Run(fmt.Sprintf("cap-%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats, err := b3.RunCampaign(b3.Campaign{
					FS:           fs,
					Bounds:       &bounds,
					SampleEvery:  3,
					MaxWorkloads: 30000,
					PruneCap:     cap,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.StatesChecked), "checks")
				b.ReportMetric(float64(stats.DiskEvictions+stats.TreeEvictions), "evictions")
				b.ReportMetric(float64(stats.DistinctStates), "cached-states")
				b.ReportMetric(float64(len(stats.Groups)), "bug-groups")
			}
		})
	}
}

// BenchmarkCheckerReadIO measures the AutoChecker's read traffic per crash
// state on the tree-tier-miss path (a fresh prune cache each iteration, so
// no verdict is ever reused). The bytes-read/state metric is the number the
// content-carrying crash index halves versus re-reading through MountedFS;
// EXPERIMENTS.md records before/after.
func BenchmarkCheckerReadIO(b *testing.B) {
	inner, _ := fsmake.Fixed("logfs")
	var meter filesys.Meter
	fs := filesys.Metered(inner, &meter)
	w := mustParse(b, "readio", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	meter.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk.Prune = crashmonkey.NewPruneCache() // every state is a miss
		if _, err := mk.TestCheckpoint(p, p.Checkpoints()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(meter.BytesRead.Load())/float64(b.N), "bytes-read/state")
	b.ReportMetric(float64(meter.ReadFileCalls.Load())/float64(b.N), "reads/state")
	b.ReportMetric(float64(meter.StatCalls.Load())/float64(b.N), "stats/state")
}

// ---- Figure 5: report grouping and dedup -----------------------------------

func BenchmarkFigure5Dedup(b *testing.B) {
	// Build a realistic report set once: a buggy seq-1 sweep.
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		b.Fatal(err)
	}
	stats, err := b3.RunCampaign(b3.Campaign{FS: fs, Profile: b3.Seq1})
	if err != nil {
		b.Fatal(err)
	}
	var reports []*report.Report
	for _, g := range stats.Groups {
		reports = append(reports, g.Reports...)
	}
	if len(reports) == 0 {
		b.Fatal("no reports to group")
	}
	db := b3.KnownBugDB("logfs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := report.GroupReports(reports)
		fresh, _ := db.Split(groups)
		b.ReportMetric(float64(len(reports))/float64(len(groups)), "reports/group")
		_ = fresh
	}
}

// ---- §6.2 baseline: the regression suite -----------------------------------

func BenchmarkBaselineXfstests(b *testing.B) {
	suite, err := xfstests.RegressionSuite()
	if err != nil {
		b.Fatal(err)
	}
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := suite.Run(fs)
		if err != nil {
			b.Fatal(err)
		}
		// The whole point of §6.2: the regression suite sees nothing.
		b.ReportMetric(float64(len(res.Failures)), "bugs-found")
	}
}

// ---- §6.5: memory consumption ----------------------------------------------

func BenchmarkMemoryPerWorkload(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "mem", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	b.ReportAllocs()
	var dirty int64
	for i := 0; i < b.N; i++ {
		p, err := mk.ProfileWorkload(w)
		if err != nil {
			b.Fatal(err)
		}
		dirty = p.DirtyBytes
	}
	// COW overlay footprint (paper: ~20 MB per VM; here KiB-scale because
	// only modified blocks are held).
	b.ReportMetric(float64(dirty)/1024, "KiB-dirty")
}

// ---- Ablations (§4.1, §4.3, §5.1 design choices) ----------------------------

// BenchmarkAblationCrashPointSpace quantifies the §4.1 argument: crashing
// only at persistence points yields a linear number of crash states, versus
// exponential (2^n orderings) for mid-operation crashes. Reported metrics:
// persistence points vs block writes between them.
func BenchmarkAblationCrashPointSpace(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "space", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	for i := 0; i < b.N; i++ {
		p, err := mk.ProfileWorkload(w)
		if err != nil {
			b.Fatal(err)
		}
		writes := 0
		for _, n := range p.WritesBetweenCheckpoints() {
			writes += n
		}
		b.ReportMetric(float64(p.Checkpoints()), "crash-points")
		b.ReportMetric(float64(writes), "block-writes")
		p.Release()
	}
}

// BenchmarkAblationPrefixReplay measures the mid-operation crash-state
// extension (§4.4 limitation 2): constructing one crash state per write
// prefix instead of one per persistence point.
func BenchmarkAblationPrefixReplay(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "prefix", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs}
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Release()
	states := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states = 0
		for n := 1; ; n++ {
			crash, applied, err := p.PrefixState(n)
			if err != nil {
				b.Fatal(err)
			}
			_ = crash
			states++
			if applied < n {
				break
			}
		}
	}
	b.ReportMetric(float64(states), "prefix-states")
}

// BenchmarkAblationFsckVsAutoChecker compares the fine-grained AutoChecker
// against running full fsck on every crash state (§4.3: "fsck is both
// time-consuming ... and can miss data loss/corruption bugs").
func BenchmarkAblationFsckVsAutoChecker(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "fsck", phaseWorkload)
	mk := &crashmonkey.Monkey{FS: fs, SkipWriteChecks: true}
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("autochecker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mk.TestCheckpoint(p, p.Checkpoints()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fsck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			crash, _, err := p.PrefixState(1 << 30)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fs.Fsck(crash); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWriteChecks measures the cost of the destructive write
// checks relative to read-only checking (§5.1).
func BenchmarkAblationWriteChecks(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "wc", phaseWorkload)
	for _, mode := range []struct {
		name string
		skip bool
	}{{"with-write-checks", false}, {"read-only", true}} {
		b.Run(mode.name, func(b *testing.B) {
			mk := &crashmonkey.Monkey{FS: fs, SkipWriteChecks: mode.skip}
			p, err := mk.ProfileWorkload(w)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mk.TestCheckpoint(p, p.Checkpoints()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustParse(tb testing.TB, id, text string) *workload.Workload {
	tb.Helper()
	w, err := workload.Parse(id, text)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}
