package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvoracle"
)

// s2small is the bench's S2small space: ace.Default(2) over two files, one
// directory and one xattr name, with the write and falloc variants trimmed.
func s2small() ace.Bounds {
	b := ace.Default(2)
	b.Files, b.Dirs = []string{"/foo", "/A/bar"}, []string{"/A"}
	b.XattrNames = []string{"user.u1"}
	b.WriteSems = b.WriteSems[:2]
	b.FallocVariants = b.FallocVariants[:3]
	return b
}

// fingerprints lists the expectations' fingerprints in checkpoint order.
func fingerprints(exps []*crashmonkey.Expectation) []uint64 {
	out := make([]uint64, len(exps))
	for i, e := range exps {
		out[i] = e.Fingerprint()
	}
	return out
}

// TestOracleMemoMatchesPerRow is the oracle-equality gate behind building
// one oracle per (workload, guarantee class): on every backend, the
// expectations a row profiles with through the shared memo fingerprint
// exactly like the ones a per-row ProfileWorkload builds (Expect under that
// backend's guarantees), for every workload of seq-1 and a sampled S2small
// (1 in 97 under -short, 1 in 13 otherwise). Rows in one guarantee class
// get the very same build; rows in different classes never do.
func TestOracleMemoMatchesPerRow(t *testing.T) {
	sample := int64(13)
	if testing.Short() {
		sample = 97
	}
	fss := bugsOnly(t, fsmake.Names()...)
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"seq-1", Config{Bounds: ace.Default(1)}},
		{"S2small", Config{Bounds: s2small(), SampleEvery: sample}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			monkeys := map[*fsRun]*crashmonkey.Monkey{}
			type built struct {
				g    filesys.Guarantees
				exps []*crashmonkey.Expectation
			}
			var seq int64
			var rows []built
			workloads := 0
			// onJob runs on fanOut's consumer goroutine, where t.Fatal would
			// stop the draining and hang the generator: report with Errorf
			// and let the stream drain.
			_, got := fanOut(t, sc.cfg, fss, nil, func(runs []*fsRun, j fsJob) {
				fw := j.wl.(*fileWorkload)
				if j.seq != seq {
					seq, rows = j.seq, nil
					workloads++
				}
				if t.Failed() {
					return
				}
				mk := monkeys[j.run]
				if mk == nil {
					mk = &crashmonkey.Monkey{FS: j.run.cfg.FS}
					monkeys[j.run] = mk
				}
				p, err := fw.profile(mk)
				if err != nil {
					t.Errorf("%s on %s: memo profile: %v", fw.w.ID, mk.FS.Name(), err)
					return
				}
				p.Release()
				g := mk.FS.Guarantees()
				exps, err := fw.oracle.get(g, func() ([]*crashmonkey.Expectation, error) {
					return nil, fmt.Errorf("profiling left no oracle under the row's guarantees")
				})
				if err != nil {
					t.Errorf("%s on %s: %v", fw.w.ID, mk.FS.Name(), err)
					return
				}
				ref, err := crashmonkey.Expect(fw.w, g)
				if err != nil {
					t.Errorf("%s on %s: per-row oracle: %v", fw.w.ID, mk.FS.Name(), err)
					return
				}
				if a, b := fingerprints(exps), fingerprints(ref); fmt.Sprint(a) != fmt.Sprint(b) {
					t.Errorf("%s on %s: memo fingerprints %x, per-row %x", fw.w.ID, mk.FS.Name(), a, b)
					return
				}
				for _, r := range rows {
					if len(exps) == 0 {
						break
					}
					if same := &r.exps[0] == &exps[0]; same != (r.g == g) {
						t.Errorf("%s on %s: shares a build with another row: %t, same guarantees: %t",
							fw.w.ID, mk.FS.Name(), same, r.g == g)
						return
					}
				}
				rows = append(rows, built{g, exps})
			})
			if t.Failed() {
				return
			}
			if len(got) != workloads*len(fss) || workloads == 0 {
				t.Fatalf("%d jobs over %d workloads and %d rows", len(got), workloads, len(fss))
			}
		})
	}
}

// TestOracleMemoBuildsOnce: the memo builds each key's value once, however
// many goroutines ask for it at the same time, and keeps an error like a
// value.
func TestOracleMemoBuildsOnce(t *testing.T) {
	var m oracleMemo[int, int]
	var builds [3]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % 3
			v, err := m.get(k, func() ([]int, error) {
				builds[k].Add(1)
				if k == 2 {
					return nil, fmt.Errorf("key %d", k)
				}
				return []int{k}, nil
			})
			if k == 2 && err == nil || k != 2 && (err != nil || v[0] != k) {
				t.Errorf("key %d: got %v, %v", k, v, err)
			}
		}()
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Fatalf("key %d built %d times, want 1", k, n)
		}
	}
}

// TestKVOracleSharedAcrossRows: the KV family builds one interval oracle per
// workload for all rows. On a kv-seq2 matrix with the reorder and
// torn/corrupt axes the class totals are pinned exactly, and every row must
// equal its standalone campaign, which builds the oracle for itself alone.
// (-short runs the logfs and fscqsim rows and skips the standalone runs.)
func TestKVOracleSharedAcrossRows(t *testing.T) {
	want := map[string]kvoracle.Counts{
		"logfs":     {Legal: 66420},
		"journalfs": {Legal: 71604},
		"f2fsim":    {Legal: 107460},
		"fscqsim":   {Legal: 69860, LostAck: 1736, Resurrected: 8},
		"diskfmt":   {Legal: 141156},
	}
	cfg := kvSweepScenario(t)
	fss := bugsOnly(t, fsmake.Names()...)
	if testing.Short() {
		fss = bugsOnly(t, "logfs", "fscqsim")
	}
	m, err := RunMatrix(cfg, fss)
	if err != nil {
		t.Fatal(err)
	}
	for i, fs := range fss {
		row := m.PerFS[i]
		if row.KVClasses != want[fs.Name()] {
			t.Errorf("%s: kv classes %+v, want %+v", fs.Name(), row.KVClasses, want[fs.Name()])
		}
		if testing.Short() {
			continue
		}
		single := cfg
		single.FS = fs
		alone, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVerdicts(t, row, alone)
	}
}

// countingFS counts Mkfs calls on the backend it wraps.
type countingFS struct {
	filesys.FileSystem
	mkfs *atomic.Int64
}

func (c countingFS) Mkfs(dev blockdev.Device) error {
	c.mkfs.Add(1)
	return c.FileSystem.Mkfs(dev)
}

// TestMatrixFormatsOncePerMonkey: a Monkey formats its base image once and
// profiles every workload over it, so a matrix run calls Mkfs at most once
// per (worker, row) — not once per workload per row.
func TestMatrixFormatsOncePerMonkey(t *testing.T) {
	const workers = 2
	var mkfs atomic.Int64
	var fss []filesys.FileSystem
	for _, fs := range bugsOnly(t, fsmake.Names()...) {
		fss = append(fss, countingFS{fs, &mkfs})
	}
	m, err := RunMatrix(Config{Bounds: ace.Default(1), Workers: workers}, fss)
	if err != nil {
		t.Fatal(err)
	}
	if n := mkfs.Load(); n < int64(len(fss)) || n > workers*int64(len(fss)) {
		t.Fatalf("Mkfs ran %d times for %d rows of %d workloads at %d workers, want %d..%d",
			n, len(fss), m.PerFS[0].Tested, workers, len(fss), workers*len(fss))
	}
}
