package crashmonkey

import (
	"fmt"
	"testing"

	"b3/internal/ace"
	"b3/internal/filesys"
	"b3/internal/fs/logfs"
	"b3/internal/workload"
)

func parseWL(t *testing.T, id, text string) *workload.Workload {
	t.Helper()
	w, err := workload.Parse(id, text)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestExpectationFingerprintDeterministic(t *testing.T) {
	text := `
mkdir /A
creat /A/foo
write /A/foo 0 8192
fsync /A/foo
link /A/foo /A/bar
sync
`
	mk := &Monkey{FS: logfsFixed()}
	p1, err := mk.ProfileWorkload(parseWL(t, "fp", text))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := mk.ProfileWorkload(parseWL(t, "fp", text))
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := p1.checks.(fileOracle), p2.checks.(fileOracle)
	if len(e1) != len(e2) {
		t.Fatalf("checkpoint count differs: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		a, b := e1[i].Fingerprint(), e2[i].Fingerprint()
		if a != b {
			t.Fatalf("checkpoint %d: fingerprint %x != %x", i+1, a, b)
		}
	}
	if e1[0].Fingerprint() == e1[len(e1)-1].Fingerprint() {
		t.Fatal("distinct checkpoints produced equal fingerprints")
	}
}

// TestPruneSharedPrefixAcrossWorkloads is the campaign-scale win: every
// workload sharing an op prefix reconstructs the same early crash states,
// so only the first workload pays for checking them.
func TestPruneSharedPrefixAcrossWorkloads(t *testing.T) {
	fs := logfs.New(logfs.Options{})
	cache := NewPruneCache()
	mk := &Monkey{FS: fs, Prune: cache}

	w1 := parseWL(t, "w1", "creat /foo\nfsync /foo\nmkdir /A\nfsync /A\n")
	w2 := parseWL(t, "w2", "creat /foo\nfsync /foo\ncreat /bar\nfsync /bar\n")

	p1, err := mk.ProfileWorkload(w1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := mk.TestCheckpoint(p1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pruned {
		t.Fatal("first sighting of a state must be checked")
	}

	p2, err := mk.ProfileWorkload(w2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk.TestCheckpoint(p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Pruned || r2.PrunedBy != "disk" {
		t.Fatalf("identical prefix state not disk-pruned (pruned=%t by=%q)", r2.Pruned, r2.PrunedBy)
	}
	if fmt.Sprint(r1.Findings) != fmt.Sprint(r2.Findings) {
		t.Fatalf("pruned verdict differs:\n%v\nvs\n%v", r1.Findings, r2.Findings)
	}

	// The final checkpoints differ and must both be checked.
	e1, err := mk.TestCheckpoint(p1, p1.Checkpoints())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := mk.TestCheckpoint(p2, p2.Checkpoints())
	if err != nil {
		t.Fatal(err)
	}
	if e1.Pruned || e2.Pruned {
		t.Fatal("distinct final states were wrongly pruned")
	}
}

// TestPruneRepeatedPersistencePoint covers within-workload pruning: a
// second persistence point that changes nothing yields an equivalent crash
// state and reuses the verdict (by either tier).
func TestPruneRepeatedPersistencePoint(t *testing.T) {
	mk := &Monkey{FS: logfs.New(logfs.Options{}), Prune: NewPruneCache()}
	p, err := mk.ProfileWorkload(parseWL(t, "rep", "creat /foo\nfsync /foo\nfsync /foo\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints() != 2 {
		t.Fatalf("want 2 checkpoints, got %d", p.Checkpoints())
	}
	r1, err := mk.TestCheckpoint(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk.TestCheckpoint(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Pruned {
		t.Fatal("no-op persistence point was not pruned")
	}
	if fmt.Sprint(r1.Findings) != fmt.Sprint(r2.Findings) {
		t.Fatalf("pruned verdict differs:\n%v\nvs\n%v", r1.Findings, r2.Findings)
	}
}

// TestPruneCrossCheckSeq1 is the soundness cross-check the pruning design
// demands: over the full seq-1 space, a pruned Monkey and a no-prune
// Monkey must agree on every crash state of every checkpoint — same
// mountability, same findings, same report text. The capped variants force
// LRU eviction pressure far below the working set: verdicts must still be
// identical, only with more re-checking.
func TestPruneCrossCheckSeq1(t *testing.T) {
	cases := []struct {
		name string
		fs   filesys.FileSystem
		cap  int
	}{
		{"buggy", logfs.New(logfs.Options{}), DefaultPruneCap},
		{"fixed", logfsFixed(), DefaultPruneCap},
		{"buggy-capped", logfs.New(logfs.Options{}), 16},
		{"fixed-capped", logfsFixed(), 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewPruneCacheCap(tc.cap)
			pruned := &Monkey{FS: tc.fs, Prune: cache}
			plain := &Monkey{FS: tc.fs}
			limit := int64(0) // all
			if testing.Short() {
				limit = 200
			}
			var n int64
			_, err := ace.New(ace.Default(1)).Generate(func(w *workload.Workload) bool {
				if limit > 0 && n >= limit {
					return false
				}
				n++
				p, err := pruned.ProfileWorkload(w)
				if err != nil {
					t.Fatalf("%s: profile: %v", w.ID, err)
				}
				for cp := 1; cp <= p.Checkpoints(); cp++ {
					a, err := pruned.TestCheckpoint(p, cp)
					if err != nil {
						t.Fatalf("%s cp %d: pruned: %v", w.ID, cp, err)
					}
					b, err := plain.TestCheckpoint(p, cp)
					if err != nil {
						t.Fatalf("%s cp %d: plain: %v", w.ID, cp, err)
					}
					if a.Mountable != b.Mountable ||
						fmt.Sprint(a.Findings) != fmt.Sprint(b.Findings) {
						t.Fatalf("%s cp %d: pruned verdict diverged\npruned: mountable=%t %v\nplain:  mountable=%t %v",
							w.ID, cp, a.Mountable, a.Findings, b.Mountable, b.Findings)
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			st := cache.Stats()
			if st.Skipped() == 0 {
				t.Fatal("cross-check exercised no pruning")
			}
			if tc.cap < DefaultPruneCap && st.Evictions() == 0 {
				t.Fatal("capped cross-check exercised no eviction")
			}
			t.Logf("%d workloads: %d checks, %d skipped (%d disk, %d tree), %d evicted",
				n, st.Misses, st.Skipped(), st.DiskHits, st.TreeHits, st.Evictions())
		})
	}
}
