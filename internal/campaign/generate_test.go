package campaign

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"b3/internal/ace"
	"b3/internal/corpus"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvace"
	"b3/internal/workload"
)

// bugsOnly builds the named backends at their buggy versions.
func bugsOnly(t *testing.T, names ...string) []filesys.FileSystem {
	t.Helper()
	var fss []filesys.FileSystem
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		fss = append(fss, fs)
	}
	return fss
}

// fanOut drives generate over stub rows (no worker pool, no corpus) with a
// single consumer on an unbuffered jobs channel, so the returned slice is
// exactly the generator's send order. prep edits the rows before the
// enumeration starts; onJob runs in the consumer after each receive, so
// what it does is visible to the generator once its next send completes.
func fanOut(t *testing.T, cfg Config, fss []filesys.FileSystem,
	prep func(runs []*fsRun), onJob func(runs []*fsRun, j fsJob)) ([]*fsRun, []fsJob) {

	t.Helper()
	var runs []*fsRun
	for _, fs := range fss {
		r := &fsRun{cfg: cfg, stats: &Stats{FSName: fs.Name()}}
		r.cfg.FS = fs
		runs = append(runs, r)
	}
	if prep != nil {
		prep(runs)
	}
	jobs := make(chan fsJob)
	var got []fsJob
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for j := range jobs {
			got = append(got, j)
			if onJob != nil {
				onJob(runs, j)
			}
		}
	}()
	err := generate(&cfg, runs, jobs)
	close(jobs)
	<-drained
	if err != nil {
		t.Fatal(err)
	}
	return runs, got
}

// shared returns the generated workload a job's wrapper wraps, as a
// comparable pointer, plus the workload's ID.
func shared(t *testing.T, j fsJob) (any, string) {
	t.Helper()
	switch wl := j.wl.(type) {
	case *fileWorkload:
		return wl.w, wl.w.ID
	case *kvWorkload:
		return wl.w, wl.w.ID
	}
	t.Fatalf("unexpected workload wrapper %T", j.wl)
	return nil, ""
}

// TestGenerateFanOut is the fan-out contract of the campaign's one
// enumeration: every class member reaches every live row exactly once, rows
// in matrix order within a workload and seq ascending per row, each row
// with its own wrapper around the one shared generated workload (which is
// what proves a single generator fed all rows); a resumed record is folded
// instead of fed, and a workload every row holds a record of is never
// built; a MaxWorkloads stop lands on the sequence number it always did; a
// row whose corpus failed receives nothing further, and enumeration stops
// once every row has failed.
func TestGenerateFanOut(t *testing.T) {
	fss := bugsOnly(t, "logfs", "journalfs", "diskfmt")
	fileSpace, err := ace.New(ace.Default(1)).Count()
	if err != nil {
		t.Fatal(err)
	}
	kv := kvBounds(t, "kv-seq2")
	kvSpace, err := kvace.New(*kv).Count()
	if err != nil {
		t.Fatal(err)
	}

	// The class rule is restated here in plain arithmetic, not through
	// inClass, so the test pins the rule and not just its call sites.
	cases := []struct {
		name   string
		cfg    Config
		space  int64
		prefix string
		member func(seq int64) bool
	}{
		{"unsampled", Config{Bounds: ace.Default(1)}, fileSpace, "ace",
			func(seq int64) bool { return true }},
		{"sampled", Config{Bounds: ace.Default(1), SampleEvery: 7}, fileSpace, "ace",
			func(seq int64) bool { return seq%7 == 0 }},
		{"unsampled-sharded", Config{Bounds: ace.Default(1), Shard: 2, NumShards: 3}, fileSpace, "ace",
			func(seq int64) bool { return seq%3 == 2 }},
		{"sampled-sharded", Config{Bounds: ace.Default(1), SampleEvery: 4, Shard: 1, NumShards: 2}, fileSpace, "ace",
			func(seq int64) bool { return seq%4 == 0 && (seq/4)%2 == 1 }},
		{"kv", Config{KV: kv}, kvSpace, "kv",
			func(seq int64) bool { return true }},
		{"kv-unsampled-sharded", Config{KV: kv, Shard: 1, NumShards: 2}, kvSpace, "kv",
			func(seq int64) bool { return seq%2 == 1 }},
		{"kv-sampled-sharded", Config{KV: kv, SampleEvery: 3, Shard: 0, NumShards: 2}, kvSpace, "kv",
			func(seq int64) bool { return seq%3 == 0 && (seq/3)%2 == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs, got := fanOut(t, tc.cfg, fss, nil, nil)
			i := 0
			for seq := int64(1); seq <= tc.space; seq++ {
				if !tc.member(seq) {
					continue
				}
				var first fsJob
				for row, r := range runs {
					if i >= len(got) {
						t.Fatalf("stream ended before seq %d reached row %d", seq, row)
					}
					j := got[i]
					i++
					if j.run != r || j.seq != seq {
						t.Fatalf("job %d is (%s, seq %d), want (%s, seq %d)",
							i-1, j.run.stats.FSName, j.seq, r.stats.FSName, seq)
					}
					w, id := shared(t, j)
					if want := fmt.Sprintf("%s-%d", tc.prefix, seq); id != want {
						t.Fatalf("seq %d carries workload %q, want %q", seq, id, want)
					}
					if row == 0 {
						first = j
						continue
					}
					if j.wl == first.wl {
						t.Fatalf("seq %d: rows 0 and %d share one wrapper", seq, row)
					}
					if fw, _ := shared(t, first); w != fw {
						t.Fatalf("seq %d: row %d got its own generated workload — a second enumeration", seq, row)
					}
				}
			}
			if i != len(got) {
				t.Fatalf("%d jobs beyond the class members (first: %s seq %d)",
					len(got)-i, got[i].run.stats.FSName, got[i].seq)
			}
			if i == 0 {
				t.Fatal("class has no members: the case tests nothing")
			}
			for _, r := range runs {
				if r.stats.Generated != tc.space {
					t.Fatalf("%s: generated %d, want the full space %d", r.stats.FSName, r.stats.Generated, tc.space)
				}
				if r.stats.GenDur <= 0 || r.stats.GenDur != runs[0].stats.GenDur {
					t.Fatalf("%s: GenDur %v is not the one enumeration's %v",
						r.stats.FSName, r.stats.GenDur, runs[0].stats.GenDur)
				}
			}
		})
	}

	cfg := Config{Bounds: ace.Default(1), SampleEvery: 7}
	members := fileSpace / 7
	perRow := func(runs []*fsRun, got []fsJob) []int64 {
		n := make([]int64, len(runs))
		for _, j := range got {
			for row, r := range runs {
				if j.run == r {
					n[row]++
				}
			}
		}
		return n
	}

	t.Run("resumed-records-fold", func(t *testing.T) {
		runs, got := fanOut(t, cfg, fss, func(runs []*fsRun) {
			runs[2].done = map[int64]*corpus.WorkloadRecord{
				14: {Seq: 14, ID: "ace-14", States: 2},
				70: {Seq: 70, ID: "ace-70", States: 3},
				// Outside the class: never consulted.
				15: {Seq: 15, ID: "ace-15", States: 100},
			}
		}, nil)
		for _, j := range got {
			if j.run == runs[2] && (j.seq == 14 || j.seq == 70) {
				t.Fatalf("recorded seq %d was fed to the resuming row", j.seq)
			}
		}
		if n := perRow(runs, got); n[0] != members || n[1] != members || n[2] != members-2 {
			t.Fatalf("jobs per row = %v, want [%d %d %d]", n, members, members, members-2)
		}
		if s := runs[2].stats; s.Resumed != 2 || s.StatesTotal != 5 {
			t.Fatalf("resuming row folded %d records / %d states, want 2 / 5",
				s.Resumed, s.StatesTotal)
		}
		if runs[0].stats.Resumed+runs[1].stats.Resumed != 0 {
			t.Fatal("another row folded the resuming row's records")
		}
	})

	// A sequence number is materialised by the first row that needs it and by
	// nothing else: when every row already holds its record — a -resume over
	// a finished stretch — the walk steps over it without building.
	t.Run("resumed-by-every-row-builds-nothing", func(t *testing.T) {
		var built []int64
		testBuildHook = func(w *workload.Workload) {
			var seq int64
			fmt.Sscanf(w.ID, "ace-%d", &seq)
			built = append(built, seq)
		}
		defer func() { testBuildHook = nil }()
		runs, got := fanOut(t, cfg, fss, func(runs []*fsRun) {
			for _, r := range runs {
				r.done = map[int64]*corpus.WorkloadRecord{}
				for seq := int64(7); seq <= 70; seq += 7 {
					r.done[seq] = &corpus.WorkloadRecord{Seq: seq, ID: fmt.Sprintf("ace-%d", seq)}
				}
			}
			// One row lacks 35: it alone is fed it, from the one build.
			delete(runs[1].done, 35)
		}, nil)
		for _, j := range got {
			if j.seq <= 70 && (j.seq != 35 || j.run != runs[1]) {
				t.Fatalf("(%s, seq %d) was fed although recorded", j.run.stats.FSName, j.seq)
			}
		}
		want := []int64{35}
		for seq := int64(77); seq <= fileSpace; seq += 7 {
			want = append(want, seq)
		}
		if fmt.Sprint(built) != fmt.Sprint(want) {
			t.Fatalf("built %v, want one build per class member some row lacks: %v", built, want)
		}
		if n := perRow(runs, got); n[0] != members-10 || n[1] != members-9 || n[2] != members-10 {
			t.Fatalf("jobs per row = %v, want [%d %d %d]", n, members-10, members-9, members-10)
		}
	})

	// Constants recorded at commit 65aac30, from the generator that built
	// every workload before offering it: the walk that builds on demand
	// consults feed for the same sequence numbers, so a MaxWorkloads stop
	// lands where it did. Sampled (and unsharded), every sequence number is
	// visited and the stop is MaxWorkloads+1; unsampled-sharded, only class
	// members are, and the stop is the first member beyond MaxWorkloads — or
	// the end of the space when there is none.
	for _, tc := range []struct {
		name      string
		cfg       Config
		generated int64
		jobs      int
		lastSeq   int64
	}{
		{"max-stop-sampled", Config{SampleEvery: 7, MaxWorkloads: 100}, 101, 42, 98},
		{"max-stop-sampled-sharded", Config{SampleEvery: 4, Shard: 1, NumShards: 2, MaxWorkloads: 100}, 101, 39, 100},
		{"max-stop-unsampled-sharded", Config{Shard: 2, NumShards: 3, MaxWorkloads: 102}, 104, 102, 101},
		{"max-stop-unsharded", Config{MaxWorkloads: 100}, 101, 300, 100},
		{"max-stop-no-member-beyond", Config{Shard: 9, NumShards: 11, MaxWorkloads: 815}, 820, 222, 812},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Bounds = ace.Default(1)
			runs, got := fanOut(t, tc.cfg, fss, nil, nil)
			if len(got) != tc.jobs || got[len(got)-1].seq != tc.lastSeq {
				t.Fatalf("%d jobs ending at seq %d, want %d ending at %d",
					len(got), got[len(got)-1].seq, tc.jobs, tc.lastSeq)
			}
			for _, r := range runs {
				if r.stats.Generated != tc.generated {
					t.Fatalf("%s: generated %d, want %d", r.stats.FSName, r.stats.Generated, tc.generated)
				}
			}
		})
	}

	t.Run("failed-row-is-skipped", func(t *testing.T) {
		runs, got := fanOut(t, cfg, fss, nil, func(runs []*fsRun, j fsJob) {
			if j.run == runs[1] && j.seq == 70 {
				runs[1].corpusFailed.Store(true)
			}
		})
		for _, j := range got {
			if j.run == runs[1] && j.seq > 70 {
				t.Fatalf("failed row was fed seq %d", j.seq)
			}
		}
		if n := perRow(runs, got); n[0] != members || n[1] != 10 || n[2] != members {
			t.Fatalf("jobs per row = %v, want [%d 10 %d]", n, members, members)
		}
		if runs[0].stats.Generated != fileSpace {
			t.Fatalf("one failed row stopped the enumeration at %d of %d", runs[0].stats.Generated, fileSpace)
		}
	})

	t.Run("all-rows-failed-stops", func(t *testing.T) {
		runs, got := fanOut(t, cfg, fss, nil, func(runs []*fsRun, j fsJob) {
			if j.run == runs[0] && j.seq == 70 {
				for _, r := range runs {
					r.corpusFailed.Store(true)
				}
			}
		})
		// The generator may already be past row 1's check when the flags
		// land, never past row 2's: row 1's send cannot complete before the
		// consumer is back from onJob.
		for _, j := range got {
			if j.seq > 70 || (j.seq == 70 && j.run == runs[2]) {
				t.Fatalf("(%s, seq %d) was fed after every row had failed", j.run.stats.FSName, j.seq)
			}
		}
		for _, r := range runs {
			if r.stats.Generated != 71 {
				t.Fatalf("%s: enumeration ran to %d after every row failed at 70, want 71",
					r.stats.FSName, r.stats.Generated)
			}
		}
	})
}

// TestMatrixRowIndependence runs the hard cases of "each matrix row equals
// a standalone single-FS campaign" now that the rows share one enumeration:
// in one three-row matrix, one row resumes from an interrupted shard while
// another row's corpus dies. The death must fail the matrix naming that
// row, leave the row before it complete (done marker) and the row after it
// fully recorded, and a plain resume must then finish every row with the
// totals and groups of its standalone campaign. A MaxWorkloads stop must
// report the Generated the per-row generators reported.
func TestMatrixRowIndependence(t *testing.T) {
	fss := bugsOnly(t, "logfs", "journalfs", "f2fsim")
	base := Config{
		Bounds:       linkBounds(workload.OpCreat, workload.OpLink),
		SampleEvery:  3,
		MaxWorkloads: 3000,
	}
	var want []*Stats
	for _, fs := range fss {
		single := base
		single.FS = fs
		s, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s)
	}
	byFS := func(dir string) map[string]*corpus.LoadedShard {
		t.Helper()
		shards, err := corpus.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]*corpus.LoadedShard{}
		for _, s := range shards {
			m[s.Meta.FS] = s
		}
		return m
	}

	t.Run("resume-beside-corpus-death", func(t *testing.T) {
		dir := t.TempDir()
		// Row 0's shard starts out interrupted: some workloads recorded, no
		// completion marker.
		interrupt := make(chan struct{})
		var once sync.Once
		partial := base
		partial.FS = fss[0]
		partial.CorpusDir = dir
		partial.CheckpointEvery = 8
		partial.Interrupt = interrupt
		partial.ProgressEvery = time.Millisecond
		partial.OnProgress = func(p Progress) {
			if p.Workloads >= 50 {
				once.Do(func() { close(interrupt) })
			}
		}
		part, err := Run(partial)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted run returned err=%v, want ErrInterrupted", err)
		}
		if part.Tested == 0 || byFS(dir)["logfs"].Done != nil {
			t.Fatalf("want a part-tested shard without a completion marker, have %d tested", part.Tested)
		}

		// The matrix resumes row 0 while row 1's shard dies under it.
		cfg := base
		cfg.CorpusDir = dir
		cfg.Resume = true
		testShardHook = func(s *corpus.Shard) {
			if strings.Contains(s.Path(), "journalfs") {
				s.Kill()
			}
		}
		m, err := RunMatrix(cfg, fss)
		testShardHook = nil
		if err == nil || m != nil {
			t.Fatalf("matrix with a dead corpus returned %+v, err=%v", m, err)
		}
		if !strings.HasPrefix(err.Error(), "campaign: journalfs: ") || !strings.Contains(err.Error(), "corpus") {
			t.Fatalf("error does not name the failed row and its corpus: %v", err)
		}
		shards := byFS(dir)
		if d := shards["logfs"].Done; d == nil || d.Generated != want[0].Generated {
			t.Fatalf("the row before the failed one lacks its done marker: %+v", d)
		}
		if got, want := int64(len(shards["f2fsim"].Records)), want[2].Tested+want[2].Errors; got != want {
			t.Fatalf("the row after the failed one recorded %d workloads, want %d", got, want)
		}

		// A plain resume finishes all three rows; each equals its standalone
		// campaign.
		m, err = RunMatrix(cfg, fss)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range m.PerFS {
			w := want[i]
			if got.Generated != w.Generated || got.Tested != w.Tested || got.Failed != w.Failed ||
				got.Errors != w.Errors || got.StatesTotal != w.StatesTotal {
				t.Fatalf("%s: matrix row diverged from standalone run:\nmatrix:     gen=%d tested=%d failed=%d errors=%d states=%d\nstandalone: gen=%d tested=%d failed=%d errors=%d states=%d",
					got.FSName, got.Generated, got.Tested, got.Failed, got.Errors, got.StatesTotal,
					w.Generated, w.Tested, w.Failed, w.Errors, w.StatesTotal)
			}
			assertSameGroups(t, got, w)
			if got.GenDur != m.PerFS[0].GenDur {
				t.Fatalf("%s: GenDur %v differs from row 0's %v — more than one enumeration",
					got.FSName, got.GenDur, m.PerFS[0].GenDur)
			}
		}
		if got := m.PerFS[0].Resumed; got != want[0].Tested+want[0].Errors {
			t.Fatalf("logfs re-tested recorded workloads: resumed %d of %d", got, want[0].Tested+want[0].Errors)
		}
		if got := m.PerFS[2].Resumed; got != want[2].Tested+want[2].Errors {
			t.Fatalf("f2fsim re-tested recorded workloads: resumed %d of %d", got, want[2].Tested+want[2].Errors)
		}
		if got := m.PerFS[1].Resumed; got >= want[1].Tested {
			t.Fatalf("journalfs resumed %d workloads from a shard that died on its first append", got)
		}
		for name, s := range byFS(dir) {
			if s.Done == nil {
				t.Fatalf("%s: finished shard lacks a completion marker", name)
			}
		}
	})

	// Constants recorded from the per-row generators this enumeration
	// replaced: sampled, every sequence number is streamed and the stop lands
	// on MaxWorkloads+1; unsampled-sharded, only class members are streamed
	// and the stop lands on the first member beyond MaxWorkloads.
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want int64
	}{
		{"max-stop-sampled", func(c *Config) { c.SampleEvery = 3 }, 501},
		{"max-stop-sampled-sharded", func(c *Config) { c.SampleEvery, c.Shard, c.NumShards = 4, 1, 3 }, 501},
		{"max-stop-unsampled-sharded", func(c *Config) { c.SampleEvery, c.Shard, c.NumShards = 0, 1, 3 }, 502},
		{"max-stop-unsampled-sharded-7", func(c *Config) { c.SampleEvery, c.Shard, c.NumShards = 0, 0, 7 }, 504},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.MaxWorkloads = 500
			tc.edit(&cfg)
			m, err := RunMatrix(cfg, fss)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range m.PerFS {
				if s.Generated != tc.want {
					t.Fatalf("%s: generated %d, want %d", s.FSName, s.Generated, tc.want)
				}
			}
		})
	}
}
