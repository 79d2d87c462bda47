package crashmonkey

import (
	"slices"
	"testing"

	"b3/internal/ace"
	"b3/internal/fsmake"
	"b3/internal/fstree"
	"b3/internal/workload"
)

// expectationDigest folds into h everything an expectation demands: the
// shadow model and, per inode and per directory entry, the persistence
// level with the content it pins. It leaves out the guarantees the
// expectation was built under, so equal digests mean equal demands.
func expectationDigest(h *hasher, e *Expectation) {
	e.model.Walk(func(path string, n *fstree.Node) {
		h.str(path)
		h.u64(n.Ino)
		h.u64(uint64(n.Kind))
		h.i64(n.Size())
		h.i64(int64(n.Nlink))
		h.str(n.Target)
	})
	inos := make([]uint64, 0, len(e.files))
	for ino := range e.files {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	h.u64(uint64(len(inos)))
	for _, ino := range inos {
		fe := e.files[ino]
		h.u64(fe.ino)
		h.u64(uint64(fe.level))
		h.fileState(fe.state)
		h.boolean(fe.modified)
		h.boolean(fe.nsModified)
		h.u64(uint64(len(fe.accepted)))
		for _, st := range fe.accepted {
			h.fileState(st)
		}
		h.u64(uint64(len(fe.ranges)))
		for _, r := range fe.ranges {
			h.i64(r.off)
			h.u64(uint64(r.data.Len()))
			h.content(r.data)
		}
		h.i64(fe.minSize)
	}
	h.u64(uint64(len(e.bindings)))
	for _, b := range e.bindings {
		h.u64(b.key.parent)
		h.str(b.key.name)
		h.u64(b.ino)
		h.u64(uint64(b.level))
		h.boolean(b.removed)
		h.boolean(b.movedTo != nil)
		if b.movedTo != nil {
			h.u64(b.movedTo.parent)
			h.str(b.movedTo.name)
		}
		h.boolean(b.absent)
		h.boolean(b.unlinkedLater)
	}
}

// TestSeq1ExpectationsPinned pins the oracle: for every seq-1 workload,
// under the guarantees of each class of backends, the digest of every
// expectation Expect builds, and how many it builds.
func TestSeq1ExpectationsPinned(t *testing.T) {
	want := map[string]struct {
		exps   int
		digest uint64
	}{
		"diskfmt": {916, 0xbe184a9a38a64027},
		"logfs":   {916, 0x1c281fdf1888e97f},
		"fscqsim": {916, 0x346b83560abe3c27},
	}
	for name, w := range want {
		fs, err := fsmake.Fixed(name)
		if err != nil {
			t.Fatal(err)
		}
		g := fs.Guarantees()
		h := newHasher()
		exps := 0
		_, err = ace.New(ace.Default(1)).Generate(func(wl *workload.Workload) bool {
			es, err := Expect(wl, g)
			if err != nil {
				t.Fatalf("%s: %v", wl.ID, err)
			}
			h.str(wl.ID)
			h.u64(uint64(len(es)))
			for _, e := range es {
				expectationDigest(h, e)
			}
			exps += len(es)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if exps != w.exps || h.h != w.digest {
			t.Errorf("%s: %d expectations, digest %#016x; want %d, %#016x", name, exps, h.h, w.exps, w.digest)
		}
	}
}
