package b3_test

import (
	"strings"
	"testing"
	"time"

	"b3"
	"b3/internal/bugs"
	"b3/internal/workload"
)

func TestFacadeQuickstart(t *testing.T) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := b3.Test(fs, `
creat /foo
mkdir /A
link /foo /A/bar
fsync /foo
`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() {
		t.Fatal("Table 5 #7 should reproduce through the facade")
	}
}

// TestFacadeCampaignKnobs drives the pruning and corpus knobs through the
// public API: a seq-1 campaign persisted to a corpus, then resumed, with
// pruning stats populated; and a NoPrune run agreeing on the verdicts.
func TestFacadeCampaignKnobs(t *testing.T) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stats, err := b3.RunCampaign(b3.Campaign{FS: fs, Profile: b3.Seq1, CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StatesPruned == 0 || stats.StatesChecked == 0 {
		t.Fatalf("pruning stats missing: %+v", stats)
	}
	if stats.CorpusPath == "" {
		t.Fatal("corpus path not reported")
	}
	if !strings.Contains(stats.Summary(), "pruned") {
		t.Fatal("Summary does not report pruning")
	}

	resumed, err := b3.RunCampaign(b3.Campaign{
		FS: fs, Profile: b3.Seq1, CorpusDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == 0 || resumed.Tested != stats.Tested || resumed.Failed != stats.Failed {
		t.Fatalf("resume of a finished campaign diverged: resumed=%d tested=%d/%d failed=%d/%d",
			resumed.Resumed, resumed.Tested, stats.Tested, resumed.Failed, stats.Failed)
	}

	plain, err := b3.RunCampaign(b3.Campaign{FS: fs, Profile: b3.Seq1, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.StatesPruned != 0 {
		t.Fatal("NoPrune still pruned")
	}
	if plain.Failed != stats.Failed || len(plain.Groups) != len(stats.Groups) {
		t.Fatalf("no-prune verdicts diverged: failed %d vs %d, groups %d vs %d",
			plain.Failed, stats.Failed, len(plain.Groups), len(stats.Groups))
	}
}

// TestFacadeMatrixAndPruneCap drives the campaign-matrix and prune-cap
// knobs through the public API: a two-backend matrix over the seq-1 space
// with a tiny verdict cache must report per-FS rows, count evictions, and
// keep the reference backend clean.
func TestFacadeMatrixAndPruneCap(t *testing.T) {
	var fss []b3.FileSystem
	for _, name := range []string{"logfs", "diskfmt"} {
		fs, err := b3.NewFS(name, b3.CampaignConfig())
		if err != nil {
			t.Fatal(err)
		}
		fss = append(fss, fs)
	}
	matrix, err := b3.RunCampaignMatrix(b3.Campaign{Profile: b3.Seq1, PruneCap: 8}, fss)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix.PerFS) != 2 {
		t.Fatalf("rows = %d", len(matrix.PerFS))
	}
	logfsRow := matrix.ByFS("logfs")
	if logfsRow == nil || logfsRow.Failed == 0 {
		t.Fatal("logfs row found no seq-1 bugs")
	}
	if logfsRow.PruneCap != 8 || logfsRow.DiskEvictions+logfsRow.TreeEvictions == 0 {
		t.Fatalf("cap-8 cache did not evict: %+v", logfsRow)
	}
	if ref := matrix.ByFS("diskfmt"); ref == nil || ref.Failed != 0 || ref.Errors != 0 {
		t.Fatalf("reference row not clean: %+v", ref)
	}
	sum := matrix.Summary()
	if !strings.Contains(sum, "logfs") || !strings.Contains(sum, "diskfmt") {
		t.Fatalf("matrix summary incomplete:\n%s", sum)
	}
}

func TestFacadeFSConfigs(t *testing.T) {
	for _, name := range b3.FSNames() {
		for _, cfg := range []b3.FSConfig{b3.FixedConfig(), b3.CampaignConfig(), {}} {
			if _, err := b3.NewFS(name, cfg); err != nil {
				t.Fatalf("NewFS(%s, %+v): %v", name, cfg, err)
			}
		}
	}
	if _, err := b3.NewFS("nope", b3.FixedConfig()); err == nil {
		t.Fatal("expected error for unknown FS")
	}
	cfg, err := b3.AtKernel("3.13")
	if err != nil || cfg.Version != (b3.Version{Major: 3, Minor: 13}) {
		t.Fatalf("AtKernel: %+v %v", cfg, err)
	}
	if _, err := b3.AtKernel("not-a-version"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestFacadeTables(t *testing.T) {
	if !strings.Contains(b3.Table1(), "Corruption") {
		t.Fatal("Table1 empty")
	}
	if !strings.Contains(b3.Table2(), "btrfs") {
		t.Fatal("Table2 empty")
	}
	if !strings.Contains(b3.Table5(nil), "FSCQ") {
		t.Fatal("Table5 empty")
	}
	if len(b3.AllBugs()) < 35 {
		t.Fatalf("bug catalogue too small: %d", len(b3.AllBugs()))
	}
	if len(b3.NewBugs()) != 11 {
		t.Fatalf("new bugs = %d", len(b3.NewBugs()))
	}
	if len(b3.StudyCorpus()) != 37 {
		t.Fatalf("corpus entries = %d, want 37 (24+2+11)", len(b3.StudyCorpus()))
	}
}

func TestKnownBugDBSuppressesReproducedBugs(t *testing.T) {
	db := b3.KnownBugDB("logfs")
	if db.Len() == 0 {
		t.Fatal("empty known-bug DB")
	}
}

func TestRegressionBaselineThroughFacade(t *testing.T) {
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	ran, failures, err := b3.RegressionBaseline(fs)
	if err != nil {
		t.Fatal(err)
	}
	if ran == 0 {
		t.Fatal("no regression tests ran")
	}
	if len(failures) != 0 {
		t.Fatalf("regression suite flagged %v on the campaign config — it must miss the new bugs (§6.2)", failures)
	}
}

// TestExhaustiveSoundnessRenameSpace sweeps a dense seq-3 rename/creat
// space — the hardest namespace shapes for the oracle (replacements,
// chains, directory renames) — against fully fixed file systems. Any
// finding is a false positive in either the FS or the checker. During
// development this sweep found and minimized several real bugs in the
// fixed logfs (see DESIGN.md "The harness tested its own substrate").
func TestExhaustiveSoundnessRenameSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	for _, name := range b3.FSNames() {
		fs, err := b3.NewFS(name, b3.FixedConfig())
		if err != nil {
			t.Fatal(err)
		}
		bounds := b3.DefaultBounds(3)
		bounds.Ops = []workload.OpKind{workload.OpCreat, workload.OpRename}
		bounds.Files = []string{"/A/bar", "/B/bar", "/A/foo"}
		sample := int64(7)
		if name != "logfs" {
			sample = 29 // lighter pass for the simpler substrates
		}
		stats, err := b3.RunCampaign(b3.Campaign{FS: fs, Bounds: &bounds, SampleEvery: sample})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Failed != 0 {
			t.Fatalf("fixed %s produced %d findings:\n%s", name, stats.Failed, stats.Summary())
		}
		if stats.Errors != 0 {
			t.Fatalf("%s: %d workload errors", name, stats.Errors)
		}
	}
}

// TestCampaignConfigProducesOnlyNewConsequences: at the campaign
// configuration no unmountable states may appear (no Table 5 bug causes
// one), guarding against harness artifacts masquerading as bugs.
func TestCampaignConfigProducesOnlyNewConsequences(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	bounds := b3.DefaultBounds(2)
	bounds.Ops = []workload.OpKind{workload.OpCreat, workload.OpRename, workload.OpLink}
	stats, err := b3.RunCampaign(b3.Campaign{FS: fs, Bounds: &bounds, SampleEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range stats.Groups {
		if g.Key.Consequence == bugs.Unmountable {
			t.Fatalf("unexpected unmountable group:\n%s", g.Render())
		}
	}
}

// TestFacadeShardingAndProgress drives the sharding, merge, and live
// progress knobs through the public API: two residue classes of a seq-1
// campaign into one corpus directory, folded by MergeCampaignCorpus into
// the unsharded totals, with OnProgress snapshots delivered along the way.
func TestFacadeShardingAndProgress(t *testing.T) {
	dir := t.TempDir()
	var snapshots int
	var perShard []*b3.CampaignStats
	for shard := 0; shard < 2; shard++ {
		fs, err := b3.NewFS("logfs", b3.CampaignConfig())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := b3.RunCampaign(b3.Campaign{
			FS:            fs,
			Profile:       b3.Seq1,
			Shard:         shard,
			NumShards:     2,
			CorpusDir:     dir,
			ProgressEvery: time.Millisecond,
			OnProgress:    func(b3.CampaignProgress) { snapshots++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Shard != shard || stats.NumShards != 2 {
			t.Fatalf("shard identity not echoed: %d/%d", stats.Shard, stats.NumShards)
		}
		if !strings.Contains(stats.Summary(), "shard") {
			t.Fatal("sharded Summary does not mention the shard")
		}
		perShard = append(perShard, stats)
	}
	if snapshots == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	if perShard[0].Tested+perShard[1].Tested != perShard[0].Generated {
		t.Fatalf("shards tested %d + %d of %d workloads",
			perShard[0].Tested, perShard[1].Tested, perShard[0].Generated)
	}

	merged, err := b3.MergeCampaignCorpus(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	row := merged.ByFS("logfs")
	if row == nil || row.ShardsMerged != 2 {
		t.Fatalf("merge row wrong: %+v", row)
	}
	if row.Stats.Tested != perShard[0].Generated {
		t.Fatalf("merged tested %d of %d generated", row.Stats.Tested, perShard[0].Generated)
	}
	if row.Stats.Failed == 0 || len(row.Stats.Groups) == 0 {
		t.Fatal("merged row lost the seq-1 bug groups")
	}
	if !strings.Contains(merged.Summary(), "logfs") {
		t.Fatalf("merged summary incomplete:\n%s", merged.Summary())
	}

	// Misconfigured shards are refused through the facade too.
	fs, err := b3.NewFS("logfs", b3.CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b3.RunCampaign(b3.Campaign{
		FS: fs, Profile: b3.Seq1, Shard: 2, NumShards: 2,
	}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}
