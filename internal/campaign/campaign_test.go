package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/corpus"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvace"
	"b3/internal/report"
	"b3/internal/workload"
)

func TestSeq1CampaignOnFixedFSIsClean(t *testing.T) {
	fs, err := fsmake.Fixed("logfs")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{FS: fs, Bounds: ace.Default(1)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("fixed FS: %d failing workloads:\n%s", stats.Failed, stats.Summary())
	}
	if stats.Tested != stats.Generated || stats.Tested == 0 {
		t.Fatalf("tested %d of %d", stats.Tested, stats.Generated)
	}
	if stats.Errors != 0 {
		t.Fatalf("%d workload errors", stats.Errors)
	}
	if stats.StatesChecked+stats.StatesPruned != stats.StatesTotal {
		t.Fatalf("state accounting broken: %d checked + %d pruned != %d total",
			stats.StatesChecked, stats.StatesPruned, stats.StatesTotal)
	}
}

// TestSeq1FindsSingleOpBugs reproduces the §6.2 observation: "even
// workloads consisting of a single file-system operation, if tested
// systematically, can reveal bugs" — the seq-1 sweep at kernel 4.16 finds
// the single-op Table 5 bugs on btrfs.
func TestSeq1FindsSingleOpBugs(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{FS: fs, Bounds: ace.Default(1)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed == 0 {
		t.Fatal("seq-1 campaign at 4.16 found nothing")
	}
	// N7 ("fsync does not persist all paths") needs a link — not reachable
	// at seq-1 — but N8 (falloc beyond EOF) is a pure single-op bug.
	found := map[bugs.Consequence]bool{}
	for _, g := range stats.Groups {
		found[g.Key.Consequence] = true
	}
	if !found[bugs.BlocksLost] {
		t.Fatalf("seq-1 should find the N8 blocks-lost bug; groups:\n%s", stats.Summary())
	}
}

// linkBounds is a focused seq-2 vocabulary that reaches the multi-op link
// bugs while keeping campaign tests fast.
func linkBounds(ops ...workload.OpKind) ace.Bounds {
	b := ace.Default(2)
	b.Ops = ops
	return b
}

func assertLinkBugsFound(t *testing.T, stats *Stats) {
	t.Helper()
	if stats.Failed == 0 {
		t.Fatal("seq-2 sweep found nothing at 4.16")
	}
	found := map[bugs.Consequence]bool{}
	for _, g := range stats.Groups {
		found[g.Key.Consequence] = true
	}
	// N7: link + fsync loses the second name.
	if !found[bugs.DirEntryMissing] && !found[bugs.FileMissing] {
		t.Fatalf("expected missing-entry bugs from link workloads:\n%s", stats.Summary())
	}
}

func TestSampledSeq2FindsLinkBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("full sampled seq-2 sweep takes ~30s; TestShortSeq2FindsLinkBugs covers it under -short")
	}
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{
		FS: fs,
		Bounds: linkBounds(workload.OpCreat, workload.OpLink,
			workload.OpRename, workload.OpFalloc),
		SampleEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertLinkBugsFound(t, stats)
}

// TestShortSeq2FindsLinkBugs is the reduced-bound variant of the sweep
// above: a two-op vocabulary still drives the multi-op pipeline and finds
// the link bugs, in seconds instead of tens of seconds.
func TestShortSeq2FindsLinkBugs(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{
		FS:          fs,
		Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertLinkBugsFound(t, stats)
}

// TestPruneCrossCheck is the acceptance gate for representative pruning: a
// pruned campaign must check measurably fewer crash states than --no-prune
// while reporting the identical set of bug verdicts.
func TestPruneCrossCheck(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  3,
		MaxWorkloads: 6000,
	}
	pruned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noPrune := cfg
	noPrune.NoPrune = true
	plain, err := Run(noPrune)
	if err != nil {
		t.Fatal(err)
	}

	if plain.StatesPruned != 0 || plain.StatesChecked != plain.StatesTotal {
		t.Fatalf("no-prune mode pruned: %+v", plain)
	}
	if pruned.StatesTotal != plain.StatesTotal {
		t.Fatalf("modes saw different state counts: %d vs %d", pruned.StatesTotal, plain.StatesTotal)
	}
	if pruned.StatesChecked >= plain.StatesChecked {
		t.Fatalf("pruning checked no fewer states: %d vs %d", pruned.StatesChecked, plain.StatesChecked)
	}
	if pruned.Failed != plain.Failed {
		t.Fatalf("verdicts diverged: %d vs %d failing workloads", pruned.Failed, plain.Failed)
	}
	assertSameGroups(t, pruned, plain)
	t.Logf("checked %d of %d states (no-prune: %d); %d disk hits, %d tree hits",
		pruned.StatesChecked, pruned.StatesTotal, plain.StatesChecked,
		pruned.PrunedDisk, pruned.PrunedTree)
}

func assertSameGroups(t *testing.T, a, b *Stats) {
	t.Helper()
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group counts diverged: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Key != gb.Key {
			t.Fatalf("group %d key diverged: %+v vs %+v", i, ga.Key, gb.Key)
		}
		if len(ga.Reports) != len(gb.Reports) {
			t.Fatalf("group %d (%v) sizes diverged: %d vs %d reports",
				i, ga.Key, len(ga.Reports), len(gb.Reports))
		}
	}
}

// TestScratchStatesCrossCheck is the campaign-level acceptance gate for the
// incremental crash-state engine: the default (rolling-cursor) construction
// and the from-scratch cross-check mode must agree on every verdict and bug
// group, state for state, while the incremental engine replays strictly
// fewer writes.
func TestScratchStatesCrossCheck(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpRename),
		SampleEvery:  3,
		MaxWorkloads: 4000,
		Reorder:      1,
		// The checked/pruned split asserted below is a function of the
		// fingerprints only when one worker feeds the shared PruneCache: two
		// workers can both miss on a fingerprint before either stores it, and
		// the split then depends on scheduling.
		Workers: 1,
	}
	inc, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratchCfg := cfg
	scratchCfg.ScratchStates = true
	scratch, err := Run(scratchCfg)
	if err != nil {
		t.Fatal(err)
	}

	if inc.StatesTotal != scratch.StatesTotal || inc.ReorderStates != scratch.ReorderStates {
		t.Fatalf("modes constructed different state counts: %d/%d vs %d/%d",
			inc.StatesTotal, inc.ReorderStates, scratch.StatesTotal, scratch.ReorderStates)
	}
	// Identical fingerprints imply an identical prune split, not just
	// identical verdicts: any divergence in the incremental hashes would
	// surface here as a changed checked/pruned ratio.
	if inc.StatesChecked != scratch.StatesChecked || inc.StatesPruned != scratch.StatesPruned {
		t.Fatalf("prune split diverged: %d/%d vs %d/%d — incremental fingerprints differ from scratch",
			inc.StatesChecked, inc.StatesPruned, scratch.StatesChecked, scratch.StatesPruned)
	}
	if inc.Failed != scratch.Failed || inc.ReorderBroken != scratch.ReorderBroken {
		t.Fatalf("verdicts diverged: %d/%d failing vs %d/%d",
			inc.Failed, inc.ReorderBroken, scratch.Failed, scratch.ReorderBroken)
	}
	assertSameGroups(t, inc, scratch)
	if inc.ReplayedWrites >= scratch.ReplayedWrites {
		t.Fatalf("incremental engine replayed %d writes, scratch %d — no savings",
			inc.ReplayedWrites, scratch.ReplayedWrites)
	}
	t.Logf("replayed %d writes incrementally vs %d from scratch (%.1fx) over %d states",
		inc.ReplayedWrites, scratch.ReplayedWrites,
		float64(scratch.ReplayedWrites)/float64(inc.ReplayedWrites),
		inc.StatesTotal+inc.ReorderStates)
}

// TestReorderCampaignCrossCheck is the acceptance gate for the campaign
// reorder mode: a pruned k=1 sweep constructs the same reorder states as
// the unpruned cross-check with identical broken verdicts while running
// strictly fewer recoveries, and the accounting threads through Stats and
// the matrix table.
func TestReorderCampaignCrossCheck(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  5,
		MaxWorkloads: 2000,
		Reorder:      1,
	}
	pruned, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	noPrune := base
	noPrune.NoPrune = true
	plain, err := Run(noPrune)
	if err != nil {
		t.Fatal(err)
	}

	if pruned.ReorderBound != 1 || plain.ReorderBound != 1 {
		t.Fatalf("reorder bound not recorded: %d / %d", pruned.ReorderBound, plain.ReorderBound)
	}
	if pruned.ReorderStates == 0 {
		t.Fatal("reorder mode constructed no states")
	}
	if pruned.ReorderChecked+pruned.ReorderPruned+
		pruned.ReorderClassSkipped+pruned.ReorderCommuteSkipped != pruned.ReorderStates {
		t.Fatalf("reorder accounting broken: %d checked + %d pruned + %d class-skipped + %d commute-skipped != %d states",
			pruned.ReorderChecked, pruned.ReorderPruned,
			pruned.ReorderClassSkipped, pruned.ReorderCommuteSkipped, pruned.ReorderStates)
	}
	// -no-prune disables the verdict cache (no pruned, no class-skipped)
	// but not commutativity pruning, which is cache-independent.
	if plain.ReorderPruned != 0 || plain.ReorderClassSkipped != 0 ||
		plain.ReorderChecked+plain.ReorderCommuteSkipped != plain.ReorderStates {
		t.Fatalf("no-prune mode pruned reorder states: %+v", plain)
	}
	if pruned.ReorderStates != plain.ReorderStates {
		t.Fatalf("modes saw different reorder spaces: %d vs %d",
			pruned.ReorderStates, plain.ReorderStates)
	}
	if pruned.ReorderCommuteSkipped != plain.ReorderCommuteSkipped {
		t.Fatalf("commute skips are cache-independent but diverged: %d vs %d",
			pruned.ReorderCommuteSkipped, plain.ReorderCommuteSkipped)
	}
	if pruned.ReorderChecked >= plain.ReorderChecked {
		t.Fatalf("pruning ran no fewer reorder recoveries: %d vs %d",
			pruned.ReorderChecked, plain.ReorderChecked)
	}
	if pruned.ReorderBroken != plain.ReorderBroken {
		t.Fatalf("broken-state verdicts diverged: %d vs %d",
			pruned.ReorderBroken, plain.ReorderBroken)
	}
	// The oracle-side verdicts are untouched by the reorder sweep.
	if pruned.Failed != plain.Failed {
		t.Fatalf("oracle verdicts diverged: %d vs %d failing", pruned.Failed, plain.Failed)
	}
	assertSameGroups(t, pruned, plain)
	if !strings.Contains(pruned.Summary(), "reorder (k=1)") {
		t.Fatalf("Summary misses the reorder line:\n%s", pruned.Summary())
	}
	t.Logf("reorder: %d states, %d checked pruned-mode vs %d unpruned, %d broken",
		pruned.ReorderStates, pruned.ReorderChecked, plain.ReorderChecked, pruned.ReorderBroken)

	// A reorder campaign without reordering reports zeros and a table
	// without surprises; with reordering the matrix gains the column.
	m, err := RunMatrix(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	table := m.Table()
	if !strings.Contains(table, "reorder") || !strings.Contains(table, "r-broken") {
		t.Fatalf("matrix table misses the reorder columns:\n%s", table)
	}
	row := m.ByFS("logfs")
	if row == nil || row.ReorderStates != pruned.ReorderStates {
		t.Fatalf("matrix row reorder accounting diverged from standalone run: %+v", row)
	}
}

// assertSameVerdicts requires the verdict-bearing counters of two runs of
// one configuration to match exactly: oracle verdicts, space sizes, broken
// states on both sweep axes, application-oracle class tallies, and
// byte-identical bug groups. It is the
// shared gate of the enumeration-time-pruning cross-checks — the split
// between checked/pruned/skipped may differ between the runs, the verdicts
// never may.
func assertSameVerdicts(t *testing.T, a, b *Stats) {
	t.Helper()
	if a.Tested != b.Tested || a.Failed != b.Failed || a.Errors != b.Errors {
		t.Fatalf("oracle verdicts diverged: tested %d/%d, failed %d/%d, errors %d/%d",
			a.Tested, b.Tested, a.Failed, b.Failed, a.Errors, b.Errors)
	}
	if a.StatesTotal != b.StatesTotal {
		t.Fatalf("oracle state spaces diverged: %d vs %d", a.StatesTotal, b.StatesTotal)
	}
	if a.ReorderStates != b.ReorderStates || a.ReorderBroken != b.ReorderBroken {
		t.Fatalf("reorder sweep diverged: %d states/%d broken vs %d/%d",
			a.ReorderStates, a.ReorderBroken, b.ReorderStates, b.ReorderBroken)
	}
	if len(a.FaultKinds) != len(b.FaultKinds) {
		t.Fatalf("fault rows diverged: %d vs %d", len(a.FaultKinds), len(b.FaultKinds))
	}
	for i, fa := range a.FaultKinds {
		fb := b.FaultKinds[i]
		if fa.Kind != fb.Kind || fa.States != fb.States || fa.Broken != fb.Broken {
			t.Fatalf("%s fault sweep diverged: %d states/%d broken vs %d/%d",
				fa.Kind, fa.States, fa.Broken, fb.States, fb.Broken)
		}
	}
	if a.KVClasses != b.KVClasses {
		t.Fatalf("kv oracle classes diverged: %+v vs %+v", a.KVClasses, b.KVClasses)
	}
	assertSameGroups(t, a, b)
}

// kvSweepScenario is the application family's input to the pruning
// cross-checks: the kv-seq2 space with the reorder and torn/corrupt axes,
// where the expectation varies per epoch inside one sweep.
func kvSweepScenario(t *testing.T) Config {
	return Config{
		KV: kvBounds(t, "kv-seq2"), Reorder: 1,
		Faults: blockdev.FaultModel{Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt}},
	}
}

// TestClassPruneMatchesUnpruned is the verdict-equality gate for the
// enumeration-time class-prune hoist on every registered backend: with
// -no-class-prune every novel crash state is constructed before the verdict
// cache is consulted, so any divergence in verdicts, bug groups, or space
// sizes means the hoisted fingerprint classified a state the constructed
// path would have judged differently.
func TestClassPruneMatchesUnpruned(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"seq1-reorder2-faults", Config{Bounds: ace.Default(1), Reorder: 2, Faults: allFaultsModel}},
		{"seq2-reorder1", Config{
			Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
			SampleEvery: 5, MaxWorkloads: 2000, Reorder: 1,
		}},
		{"kv-seq2-reorder1-faults", kvSweepScenario(t)},
	}
	for _, name := range fsmake.Names() {
		for _, sc := range scenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				fs, err := fsmake.NewBugsOnly(name)
				if err != nil {
					t.Fatal(err)
				}
				base := sc.cfg
				base.FS = fs
				hoisted, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				off := base
				off.NoClassPrune = true
				plain, err := Run(off)
				if err != nil {
					t.Fatal(err)
				}
				if plain.ReorderClassSkipped != 0 {
					t.Fatalf("-no-class-prune still skipped %d reorder states", plain.ReorderClassSkipped)
				}
				for _, fk := range plain.FaultKinds {
					if fk.ClassSkipped != 0 {
						t.Fatalf("-no-class-prune still skipped %d %s fault states", fk.ClassSkipped, fk.Kind)
					}
				}
				assertSameVerdicts(t, hoisted, plain)
			})
		}
	}
}

// TestCommutePruneMatchesUnpruned is the verdict-equality gate for reorder
// commutativity pruning on every registered backend at k=1..2: with
// -no-commute-prune every drop-set is constructed, including ones provably
// identical to an earlier canonical drop-set. (On this corpus the skip
// count is typically zero — every backend flushes each dirty block at most
// once per epoch, see ARCHITECTURE.md — so the blockdev-level
// TestCommutePruneInvariants/FuzzCommuteSkip carry the positive cases on
// synthetic logs; this gate proves the escape hatch and the default agree
// on real workloads.)
func TestCommutePruneMatchesUnpruned(t *testing.T) {
	seq2 := func(k int) Config {
		return Config{
			Bounds:      linkBounds(workload.OpCreat, workload.OpRename),
			SampleEvery: 5, MaxWorkloads: 2000, Reorder: k,
		}
	}
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"k=1", seq2(1)},
		{"k=2", seq2(2)},
		{"kv-seq2-reorder1-faults", kvSweepScenario(t)},
	}
	for _, name := range fsmake.Names() {
		for _, sc := range scenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				fs, err := fsmake.NewBugsOnly(name)
				if err != nil {
					t.Fatal(err)
				}
				base := sc.cfg
				base.FS = fs
				on, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				off := base
				off.NoCommutePrune = true
				plain, err := Run(off)
				if err != nil {
					t.Fatal(err)
				}
				if plain.ReorderCommuteSkipped != 0 {
					t.Fatalf("-no-commute-prune still skipped %d states", plain.ReorderCommuteSkipped)
				}
				assertSameVerdicts(t, on, plain)
			})
		}
	}
}

// TestReorderResumeMatchesUninterrupted: reorder totals recorded in the
// corpus shard fold back in on resume, so a killed-and-resumed reorder
// campaign reports the same reorder accounting as an uninterrupted one.
func TestReorderResumeMatchesUninterrupted(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  5,
		MaxWorkloads: 1500,
		Reorder:      1,
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	partial := base
	partial.CorpusDir = dir
	partial.MaxWorkloads = 700
	partial.CheckpointEvery = 16
	if _, err := Run(partial); err != nil {
		t.Fatal(err)
	}

	resume := base
	resume.CorpusDir = dir
	resume.Resume = true
	resumed, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == 0 {
		t.Fatal("resume folded in no recorded workloads")
	}
	if resumed.StatesTotal != uninterrupted.StatesTotal ||
		resumed.Failed != uninterrupted.Failed {
		t.Fatalf("oracle totals diverged: states %d vs %d, failed %d vs %d",
			resumed.StatesTotal, uninterrupted.StatesTotal,
			resumed.Failed, uninterrupted.Failed)
	}
	if resumed.ReorderStates != uninterrupted.ReorderStates {
		t.Fatalf("reorder states diverged after resume: %d vs %d",
			resumed.ReorderStates, uninterrupted.ReorderStates)
	}
	if resumed.ReorderBroken != uninterrupted.ReorderBroken {
		t.Fatalf("reorder broken verdicts diverged after resume: %d vs %d",
			resumed.ReorderBroken, uninterrupted.ReorderBroken)
	}
	if resumed.ReorderChecked+resumed.ReorderPruned+
		resumed.ReorderClassSkipped+resumed.ReorderCommuteSkipped != resumed.ReorderStates {
		t.Fatalf("resumed reorder accounting broken: %d + %d + %d + %d != %d",
			resumed.ReorderChecked, resumed.ReorderPruned,
			resumed.ReorderClassSkipped, resumed.ReorderCommuteSkipped, resumed.ReorderStates)
	}
	assertSameGroups(t, resumed, uninterrupted)

	// A reorder campaign must not resume a shard recorded without reordering
	// (the recorded totals would be missing): the config fingerprint keys
	// them to different shards.
	off := base
	off.Reorder = 0
	off.CorpusDir = dir
	off.Resume = true
	offStats, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if offStats.Resumed != 0 {
		t.Fatalf("a reorder-off campaign reused %d reorder-on records", offStats.Resumed)
	}
}

// TestResumeMatchesUninterrupted is the acceptance gate for the corpus: a
// campaign killed partway and resumed must complete with the same totals
// and bug groups as an uninterrupted run.
func TestResumeMatchesUninterrupted(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  3,
		MaxWorkloads: 6000,
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// "Kill" the campaign partway: stop generation early. Everything the
	// partial run tested is checkpointed to the corpus shard.
	partial := base
	partial.CorpusDir = dir
	partial.MaxWorkloads = 2500
	partial.CheckpointEvery = 16
	if _, err := Run(partial); err != nil {
		t.Fatal(err)
	}

	resume := base
	resume.CorpusDir = dir
	resume.Resume = true
	resumed, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}

	if resumed.Resumed == 0 {
		t.Fatal("resume folded in no recorded workloads")
	}
	if resumed.Generated != uninterrupted.Generated ||
		resumed.Tested != uninterrupted.Tested ||
		resumed.Failed != uninterrupted.Failed ||
		resumed.Errors != uninterrupted.Errors ||
		resumed.StatesTotal != uninterrupted.StatesTotal {
		t.Fatalf("resumed totals diverged:\nresumed: gen=%d tested=%d failed=%d errors=%d states=%d\nbaseline: gen=%d tested=%d failed=%d errors=%d states=%d",
			resumed.Generated, resumed.Tested, resumed.Failed, resumed.Errors, resumed.StatesTotal,
			uninterrupted.Generated, uninterrupted.Tested, uninterrupted.Failed, uninterrupted.Errors, uninterrupted.StatesTotal)
	}
	assertSameGroups(t, resumed, uninterrupted)

	// A second resume of the finished campaign re-tests nothing.
	again, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != again.Tested+again.Errors {
		t.Fatalf("finished campaign re-tested workloads: resumed=%d tested=%d errors=%d",
			again.Resumed, again.Tested, again.Errors)
	}
	if again.Failed != uninterrupted.Failed {
		t.Fatalf("replayed totals diverged: %d vs %d", again.Failed, uninterrupted.Failed)
	}
	assertSameGroups(t, again, uninterrupted)
}

// TestInterruptCheckpointsAndResumes: closing Config.Interrupt stops the
// campaign early with ErrInterrupted and partial stats; everything tested
// so far is durable in the corpus shard, the shard carries no completion
// marker, and a plain resume finishes the campaign with totals identical
// to an uninterrupted run. This is the graceful half of crash tolerance —
// SIGINT in cmd/b3 and lease loss in a fleet worker both ride this path.
func TestInterruptCheckpointsAndResumes(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  3,
		MaxWorkloads: 6000,
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupt := make(chan struct{})
	var once sync.Once
	partial := base
	partial.CorpusDir = dir
	partial.CheckpointEvery = 8
	partial.Interrupt = interrupt
	partial.ProgressEvery = time.Millisecond
	partial.OnProgress = func(Progress) {
		once.Do(func() { close(interrupt) })
	}
	stats, err := Run(partial)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned err=%v, want ErrInterrupted", err)
	}
	if stats == nil {
		t.Fatal("interrupted run returned no partial stats")
	}
	if stats.Generated >= uninterrupted.Generated {
		t.Fatalf("interrupt did not stop generation early: generated %d of %d",
			stats.Generated, uninterrupted.Generated)
	}

	// Every workload the partial run tested is durable, and the shard must
	// NOT carry a completion marker: the space was not exhausted.
	loaded, err := corpus.LoadShard(stats.CorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done != nil {
		t.Fatal("interrupted shard carries a completion marker")
	}
	if got, want := int64(len(loaded.Records)), stats.Tested+stats.Errors; got != want {
		t.Fatalf("interrupted shard holds %d records, want tested+errors=%d", got, want)
	}

	resume := base
	resume.CorpusDir = dir
	resume.Resume = true
	resumed, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != stats.Tested+stats.Errors {
		t.Fatalf("resume folded %d workloads, want %d", resumed.Resumed, stats.Tested+stats.Errors)
	}
	if resumed.Generated != uninterrupted.Generated ||
		resumed.Tested != uninterrupted.Tested ||
		resumed.Failed != uninterrupted.Failed ||
		resumed.Errors != uninterrupted.Errors ||
		resumed.StatesTotal != uninterrupted.StatesTotal {
		t.Fatalf("resumed totals diverged:\nresumed: gen=%d tested=%d failed=%d errors=%d states=%d\nbaseline: gen=%d tested=%d failed=%d errors=%d states=%d",
			resumed.Generated, resumed.Tested, resumed.Failed, resumed.Errors, resumed.StatesTotal,
			uninterrupted.Generated, uninterrupted.Tested, uninterrupted.Failed, uninterrupted.Errors, uninterrupted.StatesTotal)
	}
	assertSameGroups(t, resumed, uninterrupted)

	// The finished shard is now complete and a further resume re-tests
	// nothing.
	loaded, err = corpus.LoadShard(resumed.CorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Done == nil {
		t.Fatal("resumed-to-completion shard lacks a completion marker")
	}
}

// TestResumeIsolatesDifferentSpaces: a corpus shard is keyed by the full
// configuration fingerprint, so a differently-configured campaign — even a
// non-resume one — gets its own shard and can never truncate or silently
// mix sequence numbers with an existing one.
func TestResumeIsolatesDifferentSpaces(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  3,
		MaxWorkloads: 300,
		CorpusDir:    dir,
		ProfileLabel: "space-test",
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Same bounds, different sampling: distinct sequence numbering, so the
	// resume must start a fresh shard rather than reuse recorded seqs.
	other := cfg
	other.Resume = true
	other.SampleEvery = 7
	stats, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 {
		t.Fatalf("a different sampling rate reused %d recorded workloads", stats.Resumed)
	}
	if stats.CorpusPath == first.CorpusPath {
		t.Fatal("differently-configured campaigns shared a shard file")
	}

	// The original shard survived and still resumes cleanly.
	again := cfg
	again.Resume = true
	replay, err := Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Resumed == 0 || replay.Failed != first.Failed {
		t.Fatalf("original shard damaged: resumed=%d failed=%d want %d",
			replay.Resumed, replay.Failed, first.Failed)
	}
}

// TestPruneCapCrossCheck is the acceptance gate for the bounded cache: a
// campaign whose prune cap sits far below the working set must evict hard
// and still produce the identical bug-group set as the no-prune
// cross-check — eviction costs re-checking, never verdicts.
func TestPruneCapCrossCheck(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  3,
		MaxWorkloads: 6000,
	}
	capped := base
	capped.PruneCap = 8
	small, err := Run(capped)
	if err != nil {
		t.Fatal(err)
	}
	noPrune := base
	noPrune.NoPrune = true
	plain, err := Run(noPrune)
	if err != nil {
		t.Fatal(err)
	}

	if small.PruneCap != 8 {
		t.Fatalf("cap not recorded: %d", small.PruneCap)
	}
	if small.DiskEvictions+small.TreeEvictions == 0 {
		t.Fatal("a cap-8 cache under a seq-2 sweep must evict")
	}
	if small.DistinctStates > 8 {
		t.Fatalf("cache exceeded its cap: %d entries", small.DistinctStates)
	}
	if small.StatesTotal != plain.StatesTotal {
		t.Fatalf("modes saw different state counts: %d vs %d", small.StatesTotal, plain.StatesTotal)
	}
	if small.Failed != plain.Failed {
		t.Fatalf("verdicts diverged under eviction: %d vs %d failing", small.Failed, plain.Failed)
	}
	assertSameGroups(t, small, plain)
	if !strings.Contains(small.Summary(), "evicted") {
		t.Fatal("Summary does not report evictions")
	}
}

// TestMatrixCampaign fans one configuration across every registered file
// system through the shared worker pool. Each row must match a standalone
// single-FS run of the same configuration, and the reference backend must
// stay clean.
func TestMatrixCampaign(t *testing.T) {
	cfg := Config{
		Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery: 3,
	}
	names := fsmake.Names()
	if testing.Short() {
		// A buggy row and the clean reference row exercise the machinery;
		// the full five-FS sweep runs in the long suite.
		names = []string{"logfs", "diskfmt"}
	}
	var fss []filesys.FileSystem
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		fss = append(fss, fs)
	}
	m, err := RunMatrix(cfg, fss)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerFS) != len(fss) {
		t.Fatalf("matrix rows = %d, want %d", len(m.PerFS), len(fss))
	}
	for i, s := range m.PerFS {
		if s.FSName != fss[i].Name() {
			t.Fatalf("row %d is %s, want %s", i, s.FSName, fss[i].Name())
		}
		if s.Errors != 0 {
			t.Fatalf("%s: %d workload errors", s.FSName, s.Errors)
		}
		if s.StatesChecked+s.StatesPruned != s.StatesTotal {
			t.Fatalf("%s: state accounting broken: %d + %d != %d",
				s.FSName, s.StatesChecked, s.StatesPruned, s.StatesTotal)
		}
	}
	logfsRow := m.ByFS("logfs")
	if logfsRow == nil || logfsRow.Failed == 0 {
		t.Fatal("logfs row must find the link bugs")
	}
	if ref := m.ByFS("diskfmt"); ref == nil || ref.Failed != 0 {
		t.Fatalf("the diskfmt reference row must stay clean: %+v", ref)
	}

	// Every row agrees with a standalone run of the same configuration.
	for _, fs := range fss {
		single := cfg
		single.FS = fs
		want, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		got := m.ByFS(fs.Name())
		if got.Generated != want.Generated || got.Tested != want.Tested ||
			got.Failed != want.Failed || got.StatesTotal != want.StatesTotal {
			t.Fatalf("%s: matrix row diverged from standalone run:\nmatrix:     gen=%d tested=%d failed=%d states=%d\nstandalone: gen=%d tested=%d failed=%d states=%d",
				fs.Name(), got.Generated, got.Tested, got.Failed, got.StatesTotal,
				want.Generated, want.Tested, want.Failed, want.StatesTotal)
		}
		assertSameGroups(t, got, want)
	}

	summary := m.Summary()
	for _, fs := range fss {
		if !strings.Contains(summary, fs.Name()) {
			t.Fatalf("matrix summary misses %s:\n%s", fs.Name(), summary)
		}
	}
	if !strings.Contains(m.Table(), "file system") {
		t.Fatal("matrix table missing header")
	}
}

// TestMatrixRejectsDuplicateFS: two rows with one name would race on one
// corpus shard; the matrix must refuse upfront.
func TestMatrixRejectsDuplicateFS(t *testing.T) {
	fs, err := fsmake.Fixed("logfs")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunMatrix(Config{Bounds: ace.Default(1)}, []filesys.FileSystem{fs, fs})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate rows not refused: %v", err)
	}
}

// TestCorpusDeathFailsCampaign kills the shard file mid-campaign: the
// append failure must latch, stop generation, and surface as a Run error
// (which cmd/b3 turns into a non-zero exit) — a campaign whose corpus died
// must not return Stats that look complete and resumable.
func TestCorpusDeathFailsCampaign(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan *corpus.Shard, 1)
	testShardHook = func(s *corpus.Shard) { killed <- s }
	defer func() { testShardHook = nil }()

	cfg := Config{
		FS:              fs,
		Bounds:          linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:     3,
		CorpusDir:       t.TempDir(),
		CheckpointEvery: 1, // observe the dead file on the first append
	}
	go func() { (<-killed).Kill() }()
	stats, err := Run(cfg)
	if err == nil {
		t.Fatalf("campaign with a dead corpus returned cleanly: %+v", stats)
	}
	if !strings.Contains(err.Error(), "corpus") {
		t.Fatalf("error does not name the corpus: %v", err)
	}
	if stats != nil {
		t.Fatal("a failed campaign must not return stats")
	}
}

func TestKnownDBSplitsGroups(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	// First run: everything is new.
	stats, err := Run(Config{FS: fs, Bounds: ace.Default(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.FreshGroups) != len(stats.Groups) {
		t.Fatal("without a DB all groups are fresh")
	}
	// Seed the DB with every group; a re-run reports nothing new (§5.3).
	db := report.NewKnownDB()
	for _, g := range stats.Groups {
		db.Add(g.Key.Skeleton, g.Key.Consequence, "seeded")
	}
	again, err := Run(Config{FS: fs, Bounds: ace.Default(1), KnownDB: db})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.FreshGroups) != 0 {
		t.Fatalf("%d groups escaped the known-bug DB", len(again.FreshGroups))
	}
	if len(again.KnownGroups) == 0 {
		t.Fatal("known groups missing")
	}
}

func TestGroupingDeduplicates(t *testing.T) {
	// Figure 5: many failing workloads collapse into few groups.
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{FS: fs, Bounds: ace.Default(1)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed <= int64(len(stats.Groups)) {
		t.Fatalf("grouping should compress: %d failures -> %d groups",
			stats.Failed, len(stats.Groups))
	}
}

// shardedMergeVsUnsharded runs cfg unsharded, then once per residue class
// 0..n-1 into dir, merges the shard corpora, and requires every
// shard-stable counter — totals, bug groups, reorder states and broken
// verdicts — to be identical to the unsharded run, headline included (the
// byte-for-byte contract of b3 -merge). Replayed writes join the stable
// set only when class pruning is off (see the in-loop comment).
func shardedMergeVsUnsharded(t *testing.T, cfg Config, fss []filesys.FileSystem, n int) *Merge {
	t.Helper()
	unsharded, err := RunMatrix(cfg, fss)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for shard := 0; shard < n; shard++ {
		scfg := cfg
		scfg.Shard, scfg.NumShards = shard, n
		scfg.CorpusDir = dir
		sm, err := RunMatrix(scfg, fss)
		if err != nil {
			t.Fatal(err)
		}
		// Every residue class must carry real work — the partition is
		// computed over the sampled subsequence precisely so that no
		// (sample, shards) pair starves a class.
		for _, s := range sm.PerFS {
			if s.Tested == 0 {
				t.Fatalf("shard %d/%d on %s tested nothing (sample %d): starved residue class",
					shard, n, s.FSName, cfg.SampleEvery)
			}
		}
	}
	merged, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != len(unsharded.PerFS) {
		t.Fatalf("merge found %d file systems, campaign ran %d", len(merged.Rows), len(unsharded.PerFS))
	}
	for _, want := range unsharded.PerFS {
		row := merged.ByFS(want.FSName)
		if row == nil {
			t.Fatalf("merge lost file system %s", want.FSName)
		}
		got := row.Stats
		if row.ShardsMerged != n {
			t.Fatalf("%s: merged %d shards, want %d", want.FSName, row.ShardsMerged, n)
		}
		if got.Generated != want.Generated || got.Tested != want.Tested ||
			got.Failed != want.Failed || got.Errors != want.Errors {
			t.Fatalf("%s: merged totals diverged:\nmerged:    gen=%d tested=%d failed=%d errors=%d\nunsharded: gen=%d tested=%d failed=%d errors=%d",
				want.FSName, got.Generated, got.Tested, got.Failed, got.Errors,
				want.Generated, want.Tested, want.Failed, want.Errors)
		}
		if got.StatesTotal != want.StatesTotal {
			t.Fatalf("%s: merged states %d, unsharded %d", want.FSName, got.StatesTotal, want.StatesTotal)
		}
		if got.StatesChecked+got.StatesPruned != got.StatesTotal {
			t.Fatalf("%s: merged state accounting broken: %d + %d != %d",
				want.FSName, got.StatesChecked, got.StatesPruned, got.StatesTotal)
		}
		if got.ReorderStates != want.ReorderStates || got.ReorderBroken != want.ReorderBroken {
			t.Fatalf("%s: merged reorder counters diverged: %d/%d vs %d/%d",
				want.FSName, got.ReorderStates, got.ReorderBroken,
				want.ReorderStates, want.ReorderBroken)
		}
		// Replayed writes are shard-stable only when class pruning is off:
		// a class hit skips state construction entirely, and which states
		// hit depends on the per-process cache contents. With -no-class-prune
		// (or -no-prune) every state is constructed and the counter is exact.
		if cfg.NoPrune || cfg.NoClassPrune {
			if got.ReplayedWrites != want.ReplayedWrites {
				t.Fatalf("%s: merged replay counter %d, unsharded %d",
					want.FSName, got.ReplayedWrites, want.ReplayedWrites)
			}
		} else if (got.ReplayedWrites == 0) != (want.ReplayedWrites == 0) {
			t.Fatalf("%s: merged replay counter %d, unsharded %d",
				want.FSName, got.ReplayedWrites, want.ReplayedWrites)
		}
		// Per-fault-kind states and broken verdicts are shard-stable (the
		// checked/pruned/class-skipped split is not — per-process prune caches).
		if len(got.FaultKinds) != len(want.FaultKinds) {
			t.Fatalf("%s: merged fault rows %d, unsharded %d",
				want.FSName, len(got.FaultKinds), len(want.FaultKinds))
		}
		for i, gf := range got.FaultKinds {
			wf := want.FaultKinds[i]
			if gf.Kind != wf.Kind || gf.States != wf.States || gf.Broken != wf.Broken {
				t.Fatalf("%s: merged %s fault counters diverged: %d states/%d broken vs %d/%d",
					want.FSName, gf.Kind, gf.States, gf.Broken, wf.States, wf.Broken)
			}
			if gf.Checked+gf.Pruned+gf.ClassSkipped != gf.States {
				t.Fatalf("%s: merged %s fault accounting broken: %d + %d + %d != %d",
					want.FSName, gf.Kind, gf.Checked, gf.Pruned, gf.ClassSkipped, gf.States)
			}
		}
		// KV oracle class totals are shard-stable: verdicts are a
		// deterministic function of the crash state and the interval
		// expectation, never of prune-cache contents.
		if got.KVClasses != want.KVClasses {
			t.Fatalf("%s: merged kv classes diverged: %+v vs %+v",
				want.FSName, got.KVClasses, want.KVClasses)
		}
		assertSameGroups(t, got, want)
		// The merged summary's headline is byte-identical to the unsharded
		// run's: same counters through the same formatter.
		if gh, wh := got.headline(), want.headline(); gh != wh {
			t.Fatalf("%s: merged headline diverged:\n%q\nvs\n%q", want.FSName, gh, wh)
		}
		if !strings.HasPrefix(row.Summary(), want.headline()+"\n") {
			t.Fatalf("%s: merged summary does not open with the unsharded headline:\n%s",
				want.FSName, row.Summary())
		}
	}
	return merged
}

// TestShardUnionMatchesUnsharded is the acceptance gate for sharded
// campaigns: the deterministic residue-class partition plus the merge
// layer must reconstruct the unsharded campaign exactly — on seq-1 across
// every registered backend (with a k=1 reorder sweep riding along) and on
// a sampled seq-2 space.
func TestShardUnionMatchesUnsharded(t *testing.T) {
	names := fsmake.Names()
	if testing.Short() {
		names = []string{"logfs", "diskfmt"}
	}
	var fss []filesys.FileSystem
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		fss = append(fss, fs)
	}
	merged := shardedMergeVsUnsharded(t, Config{Bounds: ace.Default(1), Reorder: 1}, fss, 2)
	if row := merged.ByFS("logfs"); row == nil || row.Stats.Failed == 0 {
		t.Fatal("merged seq-1 logfs row must carry the single-op bugs")
	}
	for _, name := range names {
		if !strings.Contains(merged.Summary(), name) {
			t.Fatalf("merged summary misses %s:\n%s", name, merged.Summary())
		}
	}

	// Sampled seq-2: sharding composes with SampleEvery — the union of the
	// shards is the sampled sweep. gcd(sample, shards) = 2 here on
	// purpose: partitioning raw sequence numbers would leave shard 1 with
	// no sample multiples at all (the starvation bug the sampled-index
	// partition exists to prevent); the balance assertion in the helper
	// catches any regression.
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	// -no-class-prune here on purpose: it restores the exact replay-counter
	// equality the helper can then assert (every state constructed).
	sampled := Config{
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  4,
		NoClassPrune: true,
	}
	merged = shardedMergeVsUnsharded(t, sampled, []filesys.FileSystem{fs}, 2)
	if row := merged.ByFS("logfs"); row.Stats.Failed == 0 {
		t.Fatal("merged sampled seq-2 row must carry the link bugs")
	}
}

// TestShardResumeAndIsolation: a killed shard resumes into the same corpus
// shard and still merges to the unsharded totals; a different residue
// class never reuses its records.
func TestShardResumeAndIsolation(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery: 4,
		FS:          fs,
	}
	unsharded, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Shard 0 of 2 "killed" partway (generation bounded), then resumed to
	// completion; shard 1 runs uninterrupted.
	partial := base
	partial.Shard, partial.NumShards = 0, 2
	partial.CorpusDir = dir
	partial.MaxWorkloads = unsharded.Generated / 3
	partial.CheckpointEvery = 8
	if _, err := Run(partial); err != nil {
		t.Fatal(err)
	}
	resumed := partial
	resumed.MaxWorkloads = 0
	resumed.Resume = true
	stats, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed == 0 {
		t.Fatal("shard resume folded in no recorded workloads")
	}
	other := base
	other.Shard, other.NumShards = 1, 2
	other.CorpusDir = dir
	other.Resume = true // nothing recorded for this class: a plain start
	otherStats, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if otherStats.Resumed != 0 {
		t.Fatalf("residue class 1 reused %d of class 0's records", otherStats.Resumed)
	}

	merged, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := merged.ByFS("logfs").Stats
	if got.Tested != unsharded.Tested || got.Failed != unsharded.Failed ||
		got.StatesTotal != unsharded.StatesTotal {
		t.Fatalf("killed-and-resumed shard union diverged: tested=%d failed=%d states=%d, want %d/%d/%d",
			got.Tested, got.Failed, got.StatesTotal,
			unsharded.Tested, unsharded.Failed, unsharded.StatesTotal)
	}
	assertSameGroups(t, got, unsharded)
}

// TestMergeRefusesMisuse: merging must fail loudly — naming the problem —
// on an incomplete shard set, an unfinished shard, and a directory mixing
// differently-configured campaigns.
func TestMergeRefusesMisuse(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:          fs,
		Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery: 8,
	}

	// Only shard 0 of 2 present.
	dir := t.TempDir()
	cfg := base
	cfg.Shard, cfg.NumShards = 0, 2
	cfg.CorpusDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeDir(dir, nil); err == nil || !strings.Contains(err.Error(), "1 of 2 shards") {
		t.Fatalf("incomplete shard set not refused: %v", err)
	}

	// A shard whose campaign never finished (killed before the completion
	// marker) must not merge.
	dir = t.TempDir()
	killedCfg := base
	killedCfg.CorpusDir = dir
	killedCfg.CheckpointEvery = 1
	killed := make(chan *corpus.Shard, 1)
	testShardHook = func(s *corpus.Shard) { killed <- s }
	go func() { (<-killed).Kill() }()
	_, runErr := Run(killedCfg)
	testShardHook = nil
	if runErr == nil {
		t.Fatal("killed corpus did not fail the campaign")
	}
	if _, err := MergeDir(dir, nil); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("unfinished shard not refused: %v", err)
	}

	// Two differently-configured campaigns for one FS in one directory:
	// refused with a knob-naming diff.
	dir = t.TempDir()
	a := base
	a.CorpusDir = dir
	if _, err := Run(a); err != nil {
		t.Fatal(err)
	}
	b := base
	b.CorpusDir = dir
	b.SampleEvery = 16
	if _, err := Run(b); err != nil {
		t.Fatal(err)
	}
	_, err = MergeDir(dir, nil)
	if err == nil || !strings.Contains(err.Error(), "sample") {
		t.Fatalf("mixed-campaign merge error does not name the differing knob: %v", err)
	}
}

// TestMergeRefinedResidueSystem: merging accepts a mixed-modulus exact
// cover — the shape the fleet coordinator produces when it work-steals by
// splitting an untouched class (r, n) into (r, 2n) ∪ (r+n, 2n) — and the
// folded totals and groups still match the unsharded run. Incomplete or
// overlapping refinements are refused by the disjointness + density gate.
func TestMergeRefinedResidueSystem(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:          fs,
		Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery: 4,
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	// {(0,2), (1,4), (3,4)}: class (1,2) split in two. Density 1/2+1/4+1/4.
	dir := t.TempDir()
	for _, c := range []struct{ r, n int }{{0, 2}, {1, 4}, {3, 4}} {
		cfg := base
		cfg.CorpusDir = dir
		cfg.Shard, cfg.NumShards = c.r, c.n
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := merged.ByFS("logfs")
	if row == nil {
		t.Fatal("no merged row for logfs")
	}
	if row.ShardsMerged != 3 || row.NumShards != 4 {
		t.Fatalf("refined merge bookkeeping: merged=%d finest=%d, want 3 and 4",
			row.ShardsMerged, row.NumShards)
	}
	if row.Stats.Generated != want.Generated || row.Stats.Tested != want.Tested ||
		row.Stats.Failed != want.Failed || row.Stats.Errors != want.Errors ||
		row.Stats.StatesTotal != want.StatesTotal {
		t.Fatalf("refined merge diverged from unsharded:\nmerged: gen=%d tested=%d failed=%d errors=%d states=%d\nwant:   gen=%d tested=%d failed=%d errors=%d states=%d",
			row.Stats.Generated, row.Stats.Tested, row.Stats.Failed, row.Stats.Errors, row.Stats.StatesTotal,
			want.Generated, want.Tested, want.Failed, want.Errors, want.StatesTotal)
	}
	assertSameGroups(t, row.Stats, want)

	// (1,4) ⊂ (1,2): overlapping classes are refused even though the
	// density happens to exceed one.
	overlapDir := t.TempDir()
	for _, c := range []struct{ r, n int }{{0, 2}, {1, 2}, {1, 4}, {3, 4}} {
		cfg := base
		cfg.CorpusDir = overlapDir
		cfg.Shard, cfg.NumShards = c.r, c.n
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeDir(overlapDir, nil); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping residue classes not refused: %v", err)
	}

	// {(0,2), (1,4)}: disjoint but only 3/4 of the space. The error names
	// the coverage so the operator knows it is a refined (not uniform)
	// system with classes missing.
	partialDir := t.TempDir()
	for _, c := range []struct{ r, n int }{{0, 2}, {1, 4}} {
		cfg := base
		cfg.CorpusDir = partialDir
		cfg.Shard, cfg.NumShards = c.r, c.n
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeDir(partialDir, nil); err == nil || !strings.Contains(err.Error(), "3/4") {
		t.Fatalf("partial refined cover not refused with coverage: %v", err)
	}
}

// TestMergeOfUnshardedCorpus: b3 -merge on a plain (unsharded) corpus
// directory reprints the campaign without re-running it.
func TestMergeOfUnshardedCorpus(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		FS:          fs,
		Bounds:      linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery: 8,
		CorpusDir:   dir,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := merged.ByFS("logfs")
	if row == nil || row.ShardsMerged != 1 {
		t.Fatalf("unsharded corpus merged as %+v", row)
	}
	if row.Stats.Tested != want.Tested || row.Stats.Failed != want.Failed ||
		row.Stats.Generated != want.Generated {
		t.Fatalf("reloaded totals diverged: %d/%d/%d want %d/%d/%d",
			row.Stats.Generated, row.Stats.Tested, row.Stats.Failed,
			want.Generated, want.Tested, want.Failed)
	}
	assertSameGroups(t, row.Stats, want)
}

// TestProgressReporting: OnProgress receives monotonic cumulative
// snapshots while the campaign runs, and a final snapshot reflecting the
// finished totals.
func TestProgressReporting(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	stats, err := Run(Config{
		FS:            fs,
		Bounds:        ace.Default(1),
		ProgressEvery: time.Millisecond,
		OnProgress:    func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Workloads < snaps[i-1].Workloads || snaps[i].States < snaps[i-1].States ||
			snaps[i].ReplayedWrites < snaps[i-1].ReplayedWrites {
			t.Fatalf("snapshot %d regressed: %+v after %+v", i, snaps[i], snaps[i-1])
		}
	}
	final := snaps[len(snaps)-1]
	if final.Workloads != stats.Tested+stats.Errors {
		t.Fatalf("final snapshot saw %d workloads, campaign finished %d",
			final.Workloads, stats.Tested+stats.Errors)
	}
	if final.States != stats.StatesTotal+stats.ReorderStates {
		t.Fatalf("final snapshot saw %d states, campaign constructed %d",
			final.States, stats.StatesTotal+stats.ReorderStates)
	}
	if final.ReplayedWrites != stats.ReplayedWrites {
		t.Fatalf("final snapshot saw %d replayed writes, campaign counted %d",
			final.ReplayedWrites, stats.ReplayedWrites)
	}
}

// TestShardConfigValidation: malformed shard configurations are refused
// before any work happens.
func TestShardConfigValidation(t *testing.T) {
	fs, err := fsmake.Fixed("logfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shard, n int }{{2, 2}, {-1, 3}, {0, -2}, {1, 0}} {
		cfg := Config{FS: fs, Bounds: ace.Default(1), Shard: tc.shard, NumShards: tc.n}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("shard %d/%d accepted", tc.shard, tc.n)
		}
	}
}

// TestMergeMultipleProfiles: one corpus directory may hold several
// profiles per file system (the -find-new-bugs layout: one shard per
// (fs, profile) pair); the merge folds each into its own row instead of
// refusing, and merged rows never claim to be residue classes.
func TestMergeMultipleProfiles(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seq1 := Config{FS: fs, Bounds: ace.Default(1), CorpusDir: dir, ProfileLabel: "seq-1"}
	wantSeq1, err := Run(seq1)
	if err != nil {
		t.Fatal(err)
	}
	seq2 := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  8,
		CorpusDir:    dir,
		ProfileLabel: "seq-2",
	}
	wantSeq2, err := Run(seq2)
	if err != nil {
		t.Fatal(err)
	}

	merged, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != 2 {
		t.Fatalf("want one row per profile, got %d", len(merged.Rows))
	}
	byProfile := map[string]*MergeRow{}
	for _, r := range merged.Rows {
		byProfile[r.Profile] = r
	}
	if r := byProfile["seq-1"]; r == nil || r.Stats.Failed != wantSeq1.Failed {
		t.Fatalf("seq-1 row wrong: %+v", r)
	}
	if r := byProfile["seq-2"]; r == nil || r.Stats.Failed != wantSeq2.Failed {
		t.Fatalf("seq-2 row wrong: %+v", r)
	}
	for _, r := range merged.Rows {
		// A merged row covers the whole sweep: it must not carry the
		// per-shard residue-class warning.
		if strings.Contains(r.Stats.Summary(), "residue class") {
			t.Fatalf("merged row claims to be a residue class:\n%s", r.Stats.Summary())
		}
	}
	if !strings.Contains(merged.Summary(), "seq-1") || !strings.Contains(merged.Summary(), "seq-2") {
		t.Fatalf("merged table misses a profile:\n%s", merged.Summary())
	}
}

// allFaultsModel is the full fault axis at the default 512-byte sector.
var allFaultsModel = blockdev.FaultModel{
	Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt, blockdev.FaultMisdirect},
}

// TestFaultCampaignResumeMatchesUninterrupted: per-kind fault totals recorded
// in the corpus shard fold back in on resume, so a killed-and-resumed fault
// campaign reports the same per-kind accounting as an uninterrupted one —
// and a faults-off campaign never reuses faults-on records (the fault model
// is part of the config fingerprint).
func TestFaultCampaignResumeMatchesUninterrupted(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:           fs,
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  5,
		MaxWorkloads: 1500,
		Faults:       allFaultsModel,
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(uninterrupted.FaultKinds) != 3 || uninterrupted.FaultSector != 512 {
		t.Fatalf("fault campaign reported no fault rows: %+v", uninterrupted.FaultKinds)
	}
	if !strings.Contains(uninterrupted.Summary(), "faults (sector=512)") {
		t.Fatalf("Summary misses the fault line:\n%s", uninterrupted.Summary())
	}

	dir := t.TempDir()
	partial := base
	partial.CorpusDir = dir
	partial.MaxWorkloads = 700
	partial.CheckpointEvery = 16
	if _, err := Run(partial); err != nil {
		t.Fatal(err)
	}

	resume := base
	resume.CorpusDir = dir
	resume.Resume = true
	resumed, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == 0 {
		t.Fatal("resume folded in no recorded workloads")
	}
	if resumed.StatesTotal != uninterrupted.StatesTotal ||
		resumed.Failed != uninterrupted.Failed {
		t.Fatalf("oracle totals diverged: states %d vs %d, failed %d vs %d",
			resumed.StatesTotal, uninterrupted.StatesTotal,
			resumed.Failed, uninterrupted.Failed)
	}
	for i, rf := range resumed.FaultKinds {
		uf := uninterrupted.FaultKinds[i]
		if rf.Kind != uf.Kind || rf.States != uf.States || rf.Broken != uf.Broken {
			t.Fatalf("%s fault counters diverged after resume: %d states/%d broken vs %d/%d",
				rf.Kind, rf.States, rf.Broken, uf.States, uf.Broken)
		}
		if rf.Checked+rf.Pruned+rf.ClassSkipped != rf.States {
			t.Fatalf("resumed %s fault accounting broken: %d + %d + %d != %d",
				rf.Kind, rf.Checked, rf.Pruned, rf.ClassSkipped, rf.States)
		}
	}
	assertSameGroups(t, resumed, uninterrupted)

	// Fingerprint isolation: a faults-off campaign must not resume a
	// faults-on shard (its records would carry totals the configuration
	// never swept), and vice versa.
	off := base
	off.Faults = blockdev.FaultModel{}
	off.CorpusDir = dir
	off.Resume = true
	offStats, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if offStats.Resumed != 0 {
		t.Fatalf("a faults-off campaign reused %d faults-on records", offStats.Resumed)
	}
}

// TestFaultShardUnionMatchesUnsharded extends the sharded-campaign
// acceptance gate to the fault axis: residue-class shards with all three
// fault sweeps riding along must merge to the unsharded per-kind totals
// (the helper asserts it), and the merged diskfmt row must stay clean under
// torn and corrupt faults — the campaign-level reference false-positive
// gate, with the misdirect finding documented in crashmonkey's
// TestFaultReferenceBackendTolerates.
func TestFaultShardUnionMatchesUnsharded(t *testing.T) {
	names := fsmake.Names()
	if testing.Short() {
		names = []string{"logfs", "diskfmt"}
	}
	var fss []filesys.FileSystem
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		fss = append(fss, fs)
	}
	merged := shardedMergeVsUnsharded(t, Config{Bounds: ace.Default(1), Faults: allFaultsModel}, fss, 2)
	for _, name := range names {
		row := merged.ByFS(name)
		if row == nil {
			t.Fatalf("merged matrix lost %s", name)
		}
		if len(row.Stats.FaultKinds) != 3 {
			t.Fatalf("%s: merged row carries %d fault rows, want 3", name, len(row.Stats.FaultKinds))
		}
		if row.Stats.FaultSector != 512 {
			t.Fatalf("%s: merged row lost the sector size: %d", name, row.Stats.FaultSector)
		}
		for _, fk := range row.Stats.FaultKinds {
			if fk.States == 0 {
				t.Fatalf("%s: merged %s sweep explored no states", name, fk.Kind)
			}
		}
	}
	ref := merged.ByFS("diskfmt").Stats
	for _, fk := range ref.FaultKinds {
		if fk.Kind == blockdev.FaultMisdirect.String() {
			continue // documented genuine finding, see crashmonkey tests
		}
		if fk.Broken != 0 {
			t.Fatalf("reference backend broke under %s faults across the campaign: %d states",
				fk.Kind, fk.Broken)
		}
	}
	if !strings.Contains(merged.Summary(), "torn") {
		t.Fatalf("merged summary misses the fault columns:\n%s", merged.Summary())
	}
}

// kvBounds resolves a KV profile for the campaign tests.
func kvBounds(t *testing.T, name string) *kvace.Bounds {
	t.Helper()
	b, err := kvace.Profile(name)
	if err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestKVShardUnionMatchesUnsharded extends the sharded-campaign acceptance
// gate to the application workload family: the residue-class partition of
// the kvace space plus the merge layer must reconstruct the unsharded KV
// campaign exactly — totals, bug groups, reorder counters, and the
// shard-stable oracle class tallies (asserted inside the helper).
func TestKVShardUnionMatchesUnsharded(t *testing.T) {
	names := []string{"diskfmt", "fscqsim"}
	var fss []filesys.FileSystem
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		fss = append(fss, fs)
	}
	cfg := Config{KV: kvBounds(t, "kv-seq1"), Reorder: 1}
	merged := shardedMergeVsUnsharded(t, cfg, fss, 2)

	// The buggy fscqsim row must carry the lost-acknowledged-write groups;
	// the reference diskfmt row must classify everything legal.
	buggy := merged.ByFS("fscqsim")
	if buggy == nil || buggy.Stats.Failed == 0 || buggy.Stats.KVClasses.LostAck == 0 {
		t.Fatalf("merged fscqsim row lost the KV violations: %+v", buggy)
	}
	clean := merged.ByFS("diskfmt")
	if clean == nil || clean.Stats.KVClasses.Total() == 0 || clean.Stats.KVClasses.Violations() != 0 {
		t.Fatalf("merged diskfmt row misclassified: %+v", clean.Stats.KVClasses)
	}
	if !strings.Contains(merged.Summary(), "kv oracle:") {
		t.Fatalf("merged summary misses the kv oracle line:\n%s", merged.Summary())
	}

	// Sampled + sharded on the deeper space: the partition over the
	// sampled subsequence composes with the KV enumeration as it does for
	// ACE (gcd(sample, shards) = 2 exercises the starvation guard).
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	sampled := Config{KV: kvBounds(t, "kv-seq2"), SampleEvery: 4}
	shardedMergeVsUnsharded(t, sampled, []filesys.FileSystem{fs}, 2)
}

// TestKVResumeMatchesUninterrupted: a killed KV campaign resumes from its
// corpus shard to totals — oracle class tallies included — identical to an
// uninterrupted run, and a finished campaign re-tests nothing.
func TestKVResumeMatchesUninterrupted(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("fscqsim")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		FS:      fs,
		KV:      kvBounds(t, "kv-seq2"),
		Reorder: 1,
	}
	uninterrupted, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if uninterrupted.KVClasses.Total() == 0 {
		t.Fatal("KV campaign classified no states — a vacuous baseline")
	}

	dir := t.TempDir()
	partial := base
	partial.CorpusDir = dir
	partial.MaxWorkloads = 150
	partial.CheckpointEvery = 16
	if _, err := Run(partial); err != nil {
		t.Fatal(err)
	}

	resume := base
	resume.CorpusDir = dir
	resume.Resume = true
	resumed, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == 0 {
		t.Fatal("resume folded in no recorded workloads")
	}
	if resumed.Generated != uninterrupted.Generated ||
		resumed.Tested != uninterrupted.Tested ||
		resumed.Failed != uninterrupted.Failed ||
		resumed.Errors != uninterrupted.Errors ||
		resumed.StatesTotal != uninterrupted.StatesTotal ||
		resumed.ReorderStates != uninterrupted.ReorderStates {
		t.Fatalf("resumed totals diverged:\nresumed: %+v\nbaseline: %+v", resumed, uninterrupted)
	}
	if resumed.KVClasses != uninterrupted.KVClasses {
		t.Fatalf("resumed kv classes diverged: %+v vs %+v",
			resumed.KVClasses, uninterrupted.KVClasses)
	}
	assertSameGroups(t, resumed, uninterrupted)

	// A second resume of the finished campaign re-tests nothing and still
	// reconstructs the class tallies purely from the corpus records.
	again, err := Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != again.Tested+again.Errors {
		t.Fatalf("finished KV campaign re-tested workloads: resumed=%d tested=%d errors=%d",
			again.Resumed, again.Tested, again.Errors)
	}
	if again.KVClasses != uninterrupted.KVClasses {
		t.Fatalf("replayed kv classes diverged: %+v vs %+v",
			again.KVClasses, uninterrupted.KVClasses)
	}
	assertSameGroups(t, again, uninterrupted)
}

// recordDerived is s with every field a corpus record does not determine
// zeroed: wall and phase timings (Elapsed, GenDur, the *Dur fields), dirty
// bytes, the live BlockMeter counters (BlocksRead, BytesAllocated), the
// prune cache's size, cap and evictions, and the resume bookkeeping
// (Resumed, CorpusPath).
func recordDerived(s *Stats) Stats {
	c := *s
	c.Elapsed, c.GenDur = 0, 0
	c.ProfileDur, c.ReplayDur, c.CheckDur = 0, 0, 0
	c.MaxDirty, c.TotalDirty, c.DirtySample = 0, 0, 0
	c.BlocksRead, c.BytesAllocated = 0, 0
	c.DistinctStates, c.PruneCap, c.DiskEvictions, c.TreeEvictions = 0, 0, 0, 0
	c.Resumed, c.CorpusPath = 0, ""
	return c
}

// assertSameRecordDerived requires a and b to agree on every record-derived
// Stats field, naming each field that differs.
func assertSameRecordDerived(t *testing.T, what string, a, b *Stats) {
	t.Helper()
	va, vb := reflect.ValueOf(recordDerived(a)), reflect.ValueOf(recordDerived(b))
	var diffs []string
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if reflect.DeepEqual(fa, fb) {
			continue
		}
		name := va.Type().Field(i).Name
		if va.Field(i).Kind() == reflect.Slice {
			diffs = append(diffs, fmt.Sprintf("%s (%d vs %d entries)", name, va.Field(i).Len(), vb.Field(i).Len()))
		} else {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, fa, fb))
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("%s on %s diverged: %s", what, a.FSName, strings.Join(diffs, "; "))
	}
}

// TestFoldPathsAgree: live, resumed and merged workloads reach Stats through
// the one (*Stats).fold, so one corpus accounted three ways — the live run
// at Workers 1 that wrote it, a full resume of it, and a merge of it — gives
// identical record-derived statistics, the prune tier split included. A
// partial run resumed to completion mixes the live and resumed paths in one
// row and must agree with the merge of the corpus it leaves.
func TestFoldPathsAgree(t *testing.T) {
	fss := bugsOnly(t, fsmake.Names()...)
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"seq1-reorder1-faults", Config{Bounds: ace.Default(1), Reorder: 1, Faults: allFaultsModel}},
		{"kv-seq1-reorder1", Config{KV: kvBounds(t, "kv-seq1"), Reorder: 1}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.Workers = 1
			cfg.CorpusDir = t.TempDir()
			live, err := RunMatrix(cfg, fss)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := MergeDir(cfg.CorpusDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			resume := cfg
			resume.Resume = true
			resumed, err := RunMatrix(resume, fss)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range live.PerFS {
				if want.StatesPruned == 0 {
					t.Fatalf("%s pruned nothing: the tier split is untested", want.FSName)
				}
				r := resumed.ByFS(want.FSName)
				if r.Resumed == 0 || r.DirtySample != 0 {
					t.Fatalf("%s: resume folded %d records and re-tested %d workloads",
						want.FSName, r.Resumed, r.DirtySample)
				}
				assertSameRecordDerived(t, "resume", want, r)
				assertSameRecordDerived(t, "merge", want, merged.ByFS(want.FSName).Stats)
			}
		})
	}

	t.Run("partial-resume", func(t *testing.T) {
		cfg := scenarios[0].cfg
		cfg.Workers = 1
		cfg.CorpusDir = t.TempDir()
		partial := cfg
		partial.MaxWorkloads = 400
		if _, err := RunMatrix(partial, fss); err != nil {
			t.Fatal(err)
		}
		resume := cfg
		resume.Resume = true
		resumed, err := RunMatrix(resume, fss)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := MergeDir(cfg.CorpusDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range resumed.PerFS {
			if s.Resumed == 0 || s.DirtySample == 0 {
				t.Fatalf("%s: %d resumed and %d live workloads, want both", s.FSName, s.Resumed, s.DirtySample)
			}
			if s.PrunedDisk+s.PrunedTree != s.StatesPruned {
				t.Fatalf("%s: tier split %d identical-disk + %d identical-tree != %d pruned",
					s.FSName, s.PrunedDisk, s.PrunedTree, s.StatesPruned)
			}
			assertSameRecordDerived(t, "merge", s, merged.ByFS(s.FSName).Stats)
		}
	})
}
