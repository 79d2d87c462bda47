package crashmonkey

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/fs/logfs"
	"b3/internal/fstree"
	"b3/internal/workload"
)

func strictGuarantees() filesys.Guarantees {
	return filesys.Guarantees{FdatasyncPersistsDentry: true}
}

func applyAll(t *testing.T, tr *Tracker, text string) {
	t.Helper()
	w, err := workload.Parse("t", text)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range w.Ops {
		if err := tr.Apply(op, i); err != nil {
			t.Fatalf("op %d (%s): %v", i, op, err)
		}
	}
}

func TestTrackerSyncPinsEverything(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
mkdir /A
creat /A/foo
write /A/foo 0 4096
sync
`)
	e := tr.Snapshot()
	required := 0
	for _, b := range e.bindings {
		if b.level > levelNone && !b.removed && !b.absent {
			required++
		}
	}
	if required != 2 {
		t.Fatalf("required bindings = %d, want 2 (A and A/foo)", required)
	}
	for _, fe := range e.files {
		if fe.level != levelFull || fe.modified {
			t.Fatalf("sync must pin full state: %+v", fe)
		}
	}
}

func TestTrackerUnpersistedBindingImposesNothing(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
creat /keep
sync
creat /loose
`)
	e := tr.Snapshot()
	for _, b := range e.bindings {
		if b.key.name == "loose" && b.level != levelNone {
			t.Fatal("unpersisted create must not be required")
		}
	}
}

func TestTrackerRenameChain(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
creat /a
sync
rename /a /b
rename /b /c
`)
	e := tr.Snapshot()
	var head *dentryExpect
	for _, b := range e.bindings {
		if b.key.name == "a" && b.removed && b.movedTo != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no chain head for /a")
	}
	if head.movedTo.name != "b" {
		t.Fatalf("chain hop = %q, want b", head.movedTo.name)
	}
	// Follow to c.
	var second *dentryExpect
	for _, b := range e.bindings {
		if b.key.name == "b" && b.ino == head.ino && b.movedTo != nil {
			second = b
		}
	}
	if second == nil || second.movedTo.name != "c" {
		t.Fatal("chain does not continue to /c")
	}
}

func TestTrackerFsyncPersistsRenameAsAbsence(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
creat /a
sync
rename /a /b
fsync /b
`)
	e := tr.Snapshot()
	sawAbsent, sawRequired := false, false
	for _, b := range e.bindings {
		if b.key.name == "a" && b.absent {
			sawAbsent = true
		}
		if b.key.name == "b" && b.level > levelNone && !b.removed && !b.absent {
			sawRequired = true
		}
	}
	if !sawAbsent || !sawRequired {
		t.Fatalf("fsync-of-renamed: absent(a)=%v required(b)=%v", sawAbsent, sawRequired)
	}
}

func TestTrackerModifiedSinceAcceptsBothStates(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
creat /f
write /f 0 4096
fsync /f
write /f 0 8192
`)
	e := tr.Snapshot()
	var fe *fileExpect
	for _, cand := range e.files {
		if cand.level >= levelData {
			fe = cand
		}
	}
	if fe == nil || !fe.modified {
		t.Fatal("file must be marked modified-since-persist")
	}
	if len(fe.accepted) == 0 {
		t.Fatal("accepted alternate states missing")
	}
	if fe.state.size != 4096 || fe.accepted[0].size != 8192 {
		t.Fatalf("states: persisted %d, accepted %d", fe.state.size, fe.accepted[0].size)
	}
}

func TestTrackerMsyncRangeTrimming(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
creat /f
write /f 0 65536
sync
mwrite /f 0 4096
msync /f 0 16384
mwrite /f 1024 1024
`)
	e := tr.Snapshot()
	var fe *fileExpect
	for _, cand := range e.files {
		if len(cand.ranges) > 0 {
			fe = cand
		}
	}
	if fe == nil {
		t.Fatal("no pinned ranges")
	}
	// The overwrite of [1024,2048) must have trimmed the pinned range.
	for _, r := range fe.ranges {
		end := r.off + r.data.Len()
		if r.off < 2048 && end > 1024 {
			t.Fatalf("range [%d,%d) overlaps the invalidated region", r.off, end)
		}
	}
}

func TestTrackerSnapshotIsolation(t *testing.T) {
	tr := NewTracker(strictGuarantees())
	applyAll(t, tr, `
creat /f
write /f 0 4096
fsync /f
`)
	snap := tr.Snapshot()
	applyAll(t, tr, `
write /f 0 8192
sync
`)
	// The earlier snapshot must still expect the 4096-byte state.
	for _, fe := range snap.files {
		if fe.level >= levelData && fe.state.size != 4096 {
			t.Fatalf("snapshot mutated: size %d", fe.state.size)
		}
	}
}

// expectationBytes deep-copies every content byte an expectation holds:
// persisted and accepted file states, pinned ranges, and the model's files.
func expectationBytes(e *Expectation) []byte {
	var out []byte
	state := func(st *fileState) {
		if st != nil {
			out = append(out, st.data.Bytes()...)
			for _, k := range slices.Sorted(maps.Keys(st.xattrs)) {
				out = append(append(out, k...), st.xattrs[k]...)
			}
		}
	}
	for _, ino := range slices.Sorted(maps.Keys(e.files)) {
		fe := e.files[ino]
		state(fe.state)
		for _, st := range fe.accepted {
			state(st)
		}
		for _, r := range fe.ranges {
			out = append(out, r.data.Bytes()...)
		}
	}
	e.model.Walk(func(_ string, n *fstree.Node) { out = append(out, n.Data.Bytes()...) })
	return out
}

// TestTrackerSnapshotSharingIsSafe: expectations share file contents with
// the tracker's model and fileStates with each other, so an Expectation
// taken at checkpoint k must keep its Fingerprint and every content byte
// while the tracker applies the rest of the workload. Two trackers run
// concurrently so -race also sees them share workload.Fill buffers. A
// campaign then shares one workload's expectations between matrix rows, so
// concurrent readers — Fingerprint and the read checks — of one expectation
// must agree with an unshared build.
func TestTrackerSnapshotSharingIsSafe(t *testing.T) {
	w, err := workload.Parse("seq2", `
mkdir /A
creat /A/foo
write /A/foo 0 16384
setxattr /A/foo user.a one
fsync /A/foo
mwrite /A/foo 4096 4096
msync /A/foo 0 16384
dwrite /A/foo 8192 4096
write /A/foo 0 8192
setxattr /A/foo user.a two
fdatasync /A/foo
zero_range /A/foo 0 4096
truncate /A/foo 1000
link /A/foo /A/bar
fsync /A/bar
punch_hole /A/foo 0 100
write /A/bar 500 9000
dwrite /A/foo 0 2048
sync
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() error {
		tr := NewTracker(strictGuarantees())
		type taken struct {
			exp   *Expectation
			fp    uint64
			bytes []byte
		}
		var snaps []taken
		for i, op := range w.Ops {
			if err := tr.Apply(op, i); err != nil {
				return fmt.Errorf("op %d (%s): %v", i, op, err)
			}
			if op.Kind.IsPersistence() {
				e := tr.Snapshot()
				snaps = append(snaps, taken{e, e.Fingerprint(), expectationBytes(e)})
			}
		}
		for k, s := range snaps {
			if fp := s.exp.fingerprint(); fp != s.fp {
				return fmt.Errorf("checkpoint %d: fingerprint %#x became %#x", k+1, s.fp, fp)
			}
			if !bytes.Equal(expectationBytes(s.exp), s.bytes) {
				return fmt.Errorf("checkpoint %d: file-state bytes changed after later ops", k+1)
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- run() }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent readers: one crash index per persistence point, judged by
	// an unshared reference build and, from four goroutines at once, by one
	// shared build whose fingerprints are not yet cached.
	fs := logfs.New(logfs.Options{})
	mk := &Monkey{FS: fs}
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	type judged struct {
		idx      *crashIndex
		fp       uint64
		findings string
	}
	var states []judged
	for cp, ref := range p.checks.(fileOracle) {
		crash, _, err := p.state(cp+1, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer crash.Release()
		m, err := fs.Mount(crash)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", cp+1, err)
		}
		idx, err := buildIndex(m)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", cp+1, err)
		}
		defer idx.release()
		states = append(states, judged{idx, ref.Fingerprint(), fmt.Sprint(ref.checkReadIndexed(idx))})
	}
	shared, err := Expect(w, fs.Guarantees())
	if err != nil {
		t.Fatal(err)
	}
	readers := make(chan error, 4)
	for range 4 {
		go func() {
			for cp, st := range states {
				e := shared[cp]
				if fp := e.Fingerprint(); fp != st.fp {
					readers <- fmt.Errorf("checkpoint %d: shared fingerprint %#x, unshared %#x", cp+1, fp, st.fp)
					return
				}
				if got := fmt.Sprint(e.checkReadIndexed(st.idx)); got != st.findings {
					readers <- fmt.Errorf("checkpoint %d: shared read checks %s, unshared %s", cp+1, got, st.findings)
					return
				}
			}
			readers <- nil
		}()
	}
	for range 4 {
		if err := <-readers; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrackerFdatasyncWithoutDentryGuarantee(t *testing.T) {
	g := strictGuarantees()
	g.FdatasyncPersistsDentry = false
	tr := NewTracker(g)
	applyAll(t, tr, `
creat /fresh
write /fresh 0 4096
fdatasync /fresh
`)
	e := tr.Snapshot()
	for _, b := range e.bindings {
		if b.key.name == "fresh" && b.level > levelNone {
			t.Fatal("fdatasync must not pin the dentry of a never-persisted file (FSCQ semantics)")
		}
	}
}

func TestTrackerSeverityOrdering(t *testing.T) {
	// Primary() must prefer the most actionable consequence.
	r := &Result{Findings: []Finding{
		{Consequence: bugs.XattrInconsistent},
		{Consequence: bugs.Unmountable},
		{Consequence: bugs.WrongSize},
	}}
	if r.Primary().Consequence != bugs.Unmountable {
		t.Fatalf("primary = %v", r.Primary().Consequence)
	}
}
