package ace

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

	"b3/internal/crashmonkey"
	"b3/internal/fs/logfs"
	"b3/internal/fstree"
	"b3/internal/workload"
)

func TestSeq1Generation(t *testing.T) {
	g := New(Default(1))
	var workloads []*workload.Workload
	n, err := g.Generate(func(w *workload.Workload) bool {
		workloads = append(workloads, w)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(workloads)) {
		t.Fatalf("count %d != emitted %d", n, len(workloads))
	}
	// The paper's seq-1 set has 300 workloads; ours must land in the same
	// order of magnitude (bounds are tuned, not copied — see DESIGN.md).
	if n < 100 || n > 2000 {
		t.Fatalf("seq-1 workload count = %d, want O(hundreds)", n)
	}
	for _, w := range workloads {
		// Every workload ends with a persistence point (§5.2 phase 3).
		last := w.Ops[len(w.Ops)-1]
		if !last.Kind.IsPersistence() {
			t.Fatalf("workload does not end with persistence:\n%s", w)
		}
		if len(w.CoreOps) != 1 {
			t.Fatalf("seq-1 workload with %d core ops", len(w.CoreOps))
		}
	}
}

func TestWorkloadsAreValid(t *testing.T) {
	// Every generated workload must execute without error (phase 4
	// guarantees dependencies). Validate on the model.
	g := New(Default(1))
	checked := 0
	_, err := g.Generate(func(w *workload.Workload) bool {
		model := fstree.New()
		d := &depBuilder{model: model}
		for _, op := range w.Ops {
			if op.Kind.IsPersistence() {
				continue
			}
			if !d.apply(op) {
				t.Fatalf("invalid generated workload (op %s):\n%s", op, w)
			}
		}
		checked++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no workloads generated")
	}
}

func TestWorkloadsExecuteOnFS(t *testing.T) {
	// A sample of generated workloads must run end-to-end on a real FS
	// through CrashMonkey without workload errors.
	g := New(Default(1))
	mk := &crashmonkey.Monkey{
		FS:              logfs.New(logfs.Options{BugOverride: map[string]bool{}}),
		SkipWriteChecks: true,
	}
	count := 0
	_, err := g.Generate(func(w *workload.Workload) bool {
		count++
		if count%7 != 0 { // sample
			return count < 400
		}
		res, err := mk.Run(w)
		if err != nil {
			t.Fatalf("workload failed to run: %v\n%s", err, w)
		}
		if res.Buggy() {
			t.Fatalf("fixed FS flagged by generated workload:\n%s\nfindings: %v", w, res.Findings)
		}
		return count < 400
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymmetryPruning(t *testing.T) {
	b := Default(2)
	choices := b.paramChoices(workload.OpLink)
	seen := map[[2]string]bool{}
	for _, c := range choices {
		seen[[2]string{c.op.Path, c.op.Path2}] = true
	}
	if seen[[2]string{"/foo", "/bar"}] && seen[[2]string{"/bar", "/foo"}] {
		t.Fatal("same-directory link pair not pruned")
	}
	if !seen[[2]string{"/foo", "/A/foo"}] || !seen[[2]string{"/A/foo", "/foo"}] {
		t.Fatal("cross-directory pairs must both be kept")
	}
}

// TestDirRenameSymmetryPruning is the regression for the dir-rename
// over-pruning: only same-directory pairs are symmetric, so cross-directory
// directory pairs must be generated in both orders — the upward direction
// (nested source, shallower destination) was silently skipped whenever the
// source sorted after the destination.
func TestDirRenameSymmetryPruning(t *testing.T) {
	nested, err := Profile(ProfileSeq3Nested)
	if err != nil {
		t.Fatal(err)
	}
	dirPairs := func(b Bounds) map[[2]string]bool {
		out := map[[2]string]bool{}
		dirs := map[string]bool{}
		for _, d := range b.Dirs {
			dirs[d] = true
		}
		for _, c := range b.paramChoices(workload.OpRename) {
			if dirs[c.op.Path] {
				out[[2]string{c.op.Path, c.op.Path2}] = true
			}
		}
		return out
	}

	// Both directions reach phase 2. (For the nested {/A, /A/C} pair both
	// are structurally impossible renames — over the never-empty parent one
	// way, into the own subtree the other — and phase 4's model validation
	// discards them; the end-to-end check below uses a viable shape.)
	pairs := dirPairs(nested)
	if !pairs[[2]string{"/A/C", "/A"}] {
		t.Fatalf("seq-3-nested never enumerates the upward rename(/A/C, /A) choice: %v", pairs)
	}
	if !pairs[[2]string{"/A", "/A/C"}] {
		t.Fatalf("downward dir rename choice missing: %v", pairs)
	}

	// Same-directory pairs stay canonically ordered, exactly like files.
	def := dirPairs(Default(2))
	if def[[2]string{"/B", "/A"}] {
		t.Fatal("same-directory dir pair not pruned to canonical order")
	}
	if !def[[2]string{"/A", "/B"}] {
		t.Fatal("canonical same-directory dir pair missing")
	}

	// Generation count: cross-directory custom bounds must emit exactly the
	// two directions, and the upward one must survive phase 4 end-to-end.
	b := Bounds{
		SeqLen: 1,
		Ops:    []workload.OpKind{workload.OpRename},
		Dirs:   []string{"/A", "/B/C"},
	}
	if got := len(dirPairs(b)); got != 2 {
		t.Fatalf("cross-directory dir bounds yield %d rename choices, want 2", got)
	}
	upward := 0
	if _, err := New(b).Generate(func(w *workload.Workload) bool {
		if strings.Contains(w.String(), "rename /B/C /A") {
			upward++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if upward == 0 {
		t.Fatal("no generated workload performs the upward rename /B/C -> /A")
	}
}

// TestRenameDirnessFromBounds is the regression for the hardcoded
// {"/A", "/B", "/A/C"} directory list in depBuilder.prepare: custom bounds
// whose directories carry other names must still classify a directory
// rename as a directory rename — its dependency is a mkdir, not a creat of
// a same-named regular file.
func TestRenameDirnessFromBounds(t *testing.T) {
	b := Bounds{
		SeqLen: 1,
		Ops:    []workload.OpKind{workload.OpRename},
		Files:  []string{"/foo"},
		Dirs:   []string{"/D", "/E"},
	}
	found := false
	if _, err := New(b).Generate(func(w *workload.Workload) bool {
		if !strings.Contains(w.String(), "rename /D /E") {
			return true
		}
		found = true
		if !strings.Contains(w.String(), "mkdir /D") {
			t.Fatalf("rename /D /E not prepared with mkdir /D:\n%s", w)
		}
		if strings.Contains(w.String(), "creat /D") {
			t.Fatalf("directory /D misclassified as a file:\n%s", w)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("rename /D /E never generated")
	}
}

func TestSeq2Larger(t *testing.T) {
	n1, err := New(Default(1)).Count()
	if err != nil {
		t.Fatal(err)
	}
	b := Default(2)
	// Counting all of seq-2 here is slow; restrict to a 4-op vocabulary to
	// verify the growth shape.
	b.Ops = []workload.OpKind{workload.OpCreat, workload.OpLink, workload.OpUnlink, workload.OpRename}
	n2, err := New(b).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n2 <= n1 {
		t.Fatalf("restricted seq-2 (%d) should still exceed seq-1 (%d)", n2, n1)
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range Profiles() {
		b, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.SeqLen < 1 || b.SeqLen > 3 {
			t.Fatalf("%s: bad seq len %d", name, b.SeqLen)
		}
		if len(b.Ops) == 0 {
			t.Fatalf("%s: empty op set", name)
		}
	}
	if _, err := Profile("bogus"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	render := func() []string {
		var out []string
		g := New(Default(1))
		if _, err := g.Generate(func(w *workload.Workload) bool {
			out = append(out, w.String())
			return len(out) < 50
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := render(), render()
	if len(a) != len(b) {
		t.Fatal("non-deterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload %d differs between runs", i)
		}
	}
}

func TestGenerateStopsEarly(t *testing.T) {
	g := New(Default(2))
	n, err := g.Generate(func(w *workload.Workload) bool { return false })
	if err != nil || n != 1 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

// TestShardPartitionIsExactCover: the residue-class partition is the
// contract sharded campaigns rest on — the classes 0..n-1 must be disjoint,
// their union must be exactly the unsharded enumeration (same workloads,
// same sequence numbers, same IDs), and every member must sit in its class.
// The stride runs inside each assignment's block of sequence numbers, so
// the seq-2 space is cut both by a count smaller than its blocks and by a
// prime larger than the largest one (5 × 4 persistence choices), where most
// blocks hold no member of a given class at all.
func TestShardPartitionIsExactCover(t *testing.T) {
	seq2 := Default(2)
	seq2.Ops = []workload.OpKind{workload.OpCreat, workload.OpWrite, workload.OpLink, workload.OpRename}
	seq2.Files = []string{"/foo", "/A/bar"}
	seq2.Dirs = []string{"/A"}
	seq2.WriteSems = seq2.WriteSems[:2]
	for _, tc := range []struct {
		name   string
		bounds Bounds
		n      int64
	}{
		{"seq-1/3", Default(1), 3},
		{"seq-2/3", seq2, 3},
		{"seq-2/23", seq2, 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shardCover(t, tc.bounds, tc.n)
		})
	}
}

func shardCover(t *testing.T, bounds Bounds, n int64) {
	full := map[int64]string{}
	fullCount, err := New(bounds).GenerateSeq(func(seq int64, w *workload.Workload) bool {
		full[seq] = w.String()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != fullCount {
		t.Fatalf("unsharded stream: %d workloads for count %d", len(full), fullCount)
	}

	union := map[int64]string{}
	for shard := int64(0); shard < n; shard++ {
		g := New(bounds)
		g.Shard, g.NumShards = int(shard), int(n)
		count, err := g.GenerateSeq(func(seq int64, w *workload.Workload) bool {
			if seq%n != shard {
				t.Fatalf("shard %d streamed seq %d (residue %d)", shard, seq, seq%n)
			}
			if wantID := fmt.Sprintf("ace-%d", seq); wantID != w.ID {
				t.Fatalf("seq %d carries ID %q, want %q", seq, w.ID, wantID)
			}
			if _, dup := union[seq]; dup {
				t.Fatalf("seq %d streamed by two shards", seq)
			}
			union[seq] = w.String()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != fullCount {
			t.Fatalf("shard %d reports count %d, unsharded reports %d", shard, count, fullCount)
		}
	}
	if len(union) != len(full) {
		t.Fatalf("union covers %d of %d workloads", len(union), len(full))
	}
	for seq, text := range full {
		if union[seq] != text {
			t.Fatalf("seq %d differs between shard and unsharded enumeration:\n%s\nvs\n%s",
				seq, union[seq], text)
		}
	}
}

// TestShardValidation: out-of-range residue classes are refused.
func TestShardValidation(t *testing.T) {
	for _, tc := range []struct{ shard, n int }{{2, 2}, {-1, 2}, {0, -1}} {
		g := New(Default(1))
		g.Shard, g.NumShards = tc.shard, tc.n
		if _, err := g.Generate(func(*workload.Workload) bool { return true }); err == nil {
			t.Fatalf("shard %d/%d accepted", tc.shard, tc.n)
		}
	}
}

// benchSpace rebuilds the two bounded seq-2 spaces the repository's
// benchmark sweeps (bench/workloads.go: 24,471 and 142,970 workloads).
func benchSpace(name string) Bounds {
	b := Default(2)
	b.Dirs = []string{"/A"}
	if name == "S2mid" {
		b.Files = []string{"/foo", "/bar", "/A/foo"}
		return b
	}
	b.Files = []string{"/foo", "/A/bar"}
	b.XattrNames = []string{"user.u1"}
	b.WriteSems = b.WriteSems[:2]
	b.FallocVariants = b.FallocVariants[:3]
	return b
}

// nestedSeq2 is a seq-2 space over the nested file set, where an earlier
// core op can rename a later op's directory away.
func nestedSeq2() Bounds {
	b := Default(2)
	b.Ops = []workload.OpKind{workload.OpLink, workload.OpRename, workload.OpRmdir, workload.OpWrite}
	b.Files, b.Dirs = NestedFiles(), NestedDirs()
	return b
}

func mustProfile(name ProfileName) Bounds {
	b, err := Profile(name)
	if err != nil {
		panic(err)
	}
	return b
}

// streamLine is the one rendering of a streamed workload that the
// reference comparison and the pinned digests share.
func streamLine(seq int64, w *workload.Workload) string {
	return fmt.Sprintf("%d|%s|%v|%v\n", seq, w.ID, w.Ops, w.CoreOps)
}

// reference is the brute-force enumeration the per-assignment planner
// replaced, kept as the oracle for it: every phase-3 candidate of every
// phase-2 assignment gets its own model simulation (phase4), and the
// candidates that survive are numbered in the order they are met.
func reference(b Bounds, fn func(seq int64, w *workload.Workload) bool) {
	dirs := map[string]bool{}
	for _, d := range b.Dirs {
		dirs[d] = true
	}
	var emitted int64
	stop := false
	assigned := make([]choice, b.SeqLen)
	persist := make([]persistChoice, b.SeqLen)
	var phase3 func(pos int)
	phase3 = func(pos int) {
		if pos == len(assigned) {
			w := phase4(dirs, assigned, persist)
			if w == nil {
				return // dependencies unsatisfiable: not a valid workload
			}
			emitted++
			w.ID = fmt.Sprintf("ace-%d", emitted)
			stop = !fn(emitted, w)
			return
		}
		for _, pc := range b.persistChoices(assigned[pos], pos == len(assigned)-1) {
			persist[pos] = pc
			if phase3(pos + 1); stop {
				return
			}
		}
	}
	skeleton := make([]workload.OpKind, b.SeqLen)
	var phase2 func(pos int)
	phase2 = func(pos int) {
		if pos == len(skeleton) {
			phase3(0)
			return
		}
		for _, c := range b.paramChoices(skeleton[pos]) {
			assigned[pos] = c
			if phase2(pos + 1); stop {
				return
			}
		}
	}
	var phase1 func(pos int)
	phase1 = func(pos int) {
		if pos == len(skeleton) {
			phase2(0)
			return
		}
		for _, kind := range b.Ops {
			skeleton[pos] = kind
			if phase1(pos + 1); stop {
				return
			}
		}
	}
	phase1(0)
}

// phase4 is the reference's per-candidate simulation: persistence ops go
// through prepare like any other op, and whatever dependency ops they
// produced would be emitted.
func phase4(dirs map[string]bool, assigned []choice, persist []persistChoice) *workload.Workload {
	d := &depBuilder{model: fstree.New(), dirs: dirs}
	w := &workload.Workload{}
	for i, c := range assigned {
		d.deps = d.deps[:0]
		if !d.prepare(c.op) {
			return nil
		}
		w.Ops = append(w.Ops, d.deps...)
		if !d.apply(c.op) {
			return nil
		}
		w.CoreOps = append(w.CoreOps, len(w.Ops))
		w.Ops = append(w.Ops, c.op)
		if !persist[i].none {
			pop := persist[i].op
			d.deps = d.deps[:0]
			if !d.prepare(pop) {
				return nil
			}
			w.Ops = append(w.Ops, d.deps...)
			w.Ops = append(w.Ops, pop)
		}
	}
	return w
}

// TestReferenceEquivalence: the planner's stream equals the brute-force
// reference element for element — sequence number, ID, ops and core-op
// indices — over whole spaces and over bounded prefixes of the larger ones.
func TestReferenceEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		bounds Bounds
		prefix int64 // 0 = the whole space
		long   bool
	}{
		{"seq-1", Default(1), 0, false},
		{"S2small", benchSpace("S2small"), 0, false},
		{"seq-2-nested", nestedSeq2(), 0, true},
		{"S2mid-prefix", benchSpace("S2mid"), 10000, false},
		{"seq-3-metadata-prefix", mustProfile(ProfileSeq3Metadata), 10000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("whole nested seq-2 space is not a -short case")
			}
			var want []string
			reference(tc.bounds, func(seq int64, w *workload.Workload) bool {
				want = append(want, streamLine(seq, w))
				return seq != tc.prefix
			})
			var i int
			n, err := New(tc.bounds).GenerateSeq(func(seq int64, w *workload.Workload) bool {
				if i >= len(want) {
					t.Fatalf("stream continues past the reference's %d workloads with seq %d", len(want), seq)
				}
				if got := streamLine(seq, w); got != want[i] {
					t.Fatalf("element %d differs:\n got %swant %s", i, got, want[i])
				}
				i++
				return seq != tc.prefix
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(want) || n != int64(len(want)) {
				t.Fatalf("streamed %d workloads and returned %d, reference has %d", i, n, len(want))
			}
		})
	}
}

// Stream digests recorded from the per-candidate enumeration at commit
// 65aac30, before the planner replaced it: FNV-64a over streamLine of every
// workload. They pin sequence numbers, IDs and op lists — what corpus
// records and shard keys are built on — for whole spaces the reference is
// too slow to re-walk on every run.
var streamDigests = []struct {
	name   string
	bounds Bounds
	prefix int64
	digest string
	long   bool
}{
	{"seq-1", Default(1), 0, "0e514a85b90cd33e", false},
	{"S2small", benchSpace("S2small"), 0, "500a05785d980068", false},
	{"S2mid", benchSpace("S2mid"), 0, "46261f95adb908d9", true},
	{"seq-2-nested", nestedSeq2(), 0, "45da388d8a173a47", false},
	{"seq-3-data", mustProfile(ProfileSeq3Data), 0, "a36e2356117dea44", true},
	{"seq-3-nested", mustProfile(ProfileSeq3Nested), 0, "e7f00dd7d1a30801", true},
	{"seq-3-metadata-200k", mustProfile(ProfileSeq3Metadata), 200000, "c8376bc4f3a58fb1", true},
}

func streamDigest(t *testing.T, g *Generator, prefix int64) string {
	h := fnv.New64a()
	if _, err := g.GenerateSeq(func(seq int64, w *workload.Workload) bool {
		h.Write([]byte(streamLine(seq, w)))
		return seq != prefix
	}); err != nil {
		t.Error(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestStreamDigests(t *testing.T) {
	for _, tc := range streamDigests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("S2mid and the seq-3 spaces are not -short cases")
			}
			if got := streamDigest(t, New(tc.bounds), tc.prefix); got != tc.digest {
				t.Fatalf("stream digest %s, want %s: sequence numbers, IDs or ops moved", got, tc.digest)
			}
		})
	}
}

// TestConcurrentWalks: a walk keeps no state on the Generator, so two
// goroutines may enumerate through one generator at once (run with -race)
// and both see the pinned stream.
func TestConcurrentWalks(t *testing.T) {
	g := New(Default(1))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := streamDigest(t, g, 0); got != streamDigests[0].digest {
				t.Errorf("concurrent walk digest %s, want %s", got, streamDigests[0].digest)
			}
		}()
	}
	wg.Wait()
}

// renderTree is a structural rendering of a model tree (fstree has no
// Equal): allocator position, node count, and every node by path.
func renderTree(tr *fstree.Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next=%d nodes=%d\n", tr.NextIno(), tr.NodeCount())
	tr.Walk(func(path string, n *fstree.Node) {
		fmt.Fprintf(&b, "%s %v\n", path, *n)
	})
	return b.String()
}

// TestLemmaPersistenceOpsAreInert guards the lemma the planner's numbering
// rests on: preparing a persistence op emits no dependency ops and leaves
// the model untouched — whatever it decides about the op's validity — and
// applying one is a no-op. The day fsync gains a dependency (say, creating
// its target), one simulation per assignment stops being enough, and this
// fails before any sequence number silently moves.
func TestLemmaPersistenceOpsAreInert(t *testing.T) {
	d := &depBuilder{model: fstree.New(), dirs: map[string]bool{"/A": true}}
	for _, op := range []workload.Op{
		{Kind: workload.OpWrite, Path: "/A/foo", Off: DepFileSize, Len: 4096},
		{Kind: workload.OpSetXattr, Path: "/A/foo", Name: "user.u1", Value: "val"},
		{Kind: workload.OpLink, Path: "/A/foo", Path2: "/bar"},
		{Kind: workload.OpMkfifo, Path: "/fifo"},
	} {
		if !d.prepare(op) || !d.apply(op) {
			t.Fatalf("populating the model: %s failed", op)
		}
	}
	before := d.model.Clone()
	want := renderTree(before)
	if !strings.Contains(want, "/A/foo") || !strings.Contains(want, "/bar") {
		t.Fatalf("model is not populated:\n%s", want)
	}
	kinds := []workload.OpKind{workload.OpFsync, workload.OpFdatasync, workload.OpMSync, workload.OpSync}
	// A regular file, a directory, the root, a non-regular file, and paths
	// that do not exist (under an existing and under a missing parent).
	paths := []string{"/A/foo", "/A", "/", "/fifo", "/A/missing", "/B/missing"}
	valid := 0
	for _, kind := range kinds {
		for _, path := range paths {
			op := workload.Op{Kind: kind, Path: path, Len: DepFileSize}
			d.deps = nil
			if d.prepare(op) {
				valid++
			}
			if len(d.deps) != 0 {
				t.Errorf("prepare(%s) emitted dependency ops %v", op, d.deps)
			}
			if !d.apply(op) {
				t.Errorf("apply(%s) failed: persistence ops are no-ops on the model", op)
			}
			if got := renderTree(d.model); got != want {
				t.Fatalf("%s changed the model:\n%s\nwas:\n%s", op, got, want)
			}
		}
	}
	if valid == 0 || valid == len(kinds)*len(paths) {
		t.Fatalf("%d of %d persistence ops valid: the cases do not cover both outcomes", valid, len(kinds)*len(paths))
	}
	if got := renderTree(before); got != want {
		t.Fatal("the clone taken beforehand is not independent of the model")
	}
}

// TestProfileCounts pins the Table 4 workload counts of this implementation
// (EXPERIMENTS.md), through the walk that builds nothing.
func TestProfileCounts(t *testing.T) {
	want := map[ProfileName]int64{
		ProfileSeq1: 820, ProfileSeq2: 824889, ProfileSeq3Data: 491300,
		ProfileSeq3Metadata: 2081364, ProfileSeq3Nested: 424580,
	}
	for _, name := range Profiles() {
		if testing.Short() && name != ProfileSeq1 {
			continue
		}
		n, err := New(mustProfile(name)).Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != want[name] {
			t.Errorf("%s: %d workloads, want %d", name, n, want[name])
		}
	}
}

// TestCountBuildsNothing: counting costs allocations in proportion to the
// phase-2 assignments simulated (8,649 in S2mid), not to the workloads they
// yield (142,970) — no workload, op list or ID is ever built — and pays for
// model nodes only: file content stays a view of the zero page.
func TestCountBuildsNothing(t *testing.T) {
	// Measured: 20 mallocs and ~1,400 bytes per assignment (model nodes and
	// dependency ops). Building would add three or more mallocs per
	// workload, ~50 more per assignment here; copying file content on each
	// zero write of the model adds ~16,000 bytes.
	const mallocsPerAssignment, bytesPerAssignment = 30, 2048
	b := benchSpace("S2mid")
	perSlot := 0
	for _, kind := range b.Ops {
		perSlot += len(b.paramChoices(kind))
	}
	assignments := uint64(perSlot * perSlot)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := New(b).Count()
	runtime.ReadMemStats(&after)
	if err != nil || n != 142970 {
		t.Fatalf("Count() = %d, %v; want 142970", n, err)
	}
	mallocs, allocated := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d mallocs and %d bytes for %d assignments and %d workloads", mallocs, allocated, assignments, n)
	if budget := mallocsPerAssignment * assignments; mallocs > budget {
		t.Fatalf("Count() made %d allocations, budget %d (%d per assignment): is it building workloads?",
			mallocs, budget, mallocsPerAssignment)
	}
	if budget := bytesPerAssignment * assignments; allocated > budget {
		t.Fatalf("Count() allocated %d bytes, budget %d (%d per assignment): is the model copying file content?",
			allocated, budget, bytesPerAssignment)
	}
}
