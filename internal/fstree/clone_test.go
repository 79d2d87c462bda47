package fstree

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"b3/internal/codec"
	"b3/internal/filesys"
)

// metaTree is contentTree plus every kind of inode and a hard link:
// /f (content, xattr, a second link /A/h), /A (xattr) holding /A/g
// (content), an empty /B, a symlink /s and a fifo /p.
func metaTree(t *testing.T) *Tree {
	t.Helper()
	tr := contentTree(t)
	mustMkdir(t, tr, "/A")
	mustMkdir(t, tr, "/B")
	mustCreate(t, tr, "/A/g")
	for _, err := range []error{
		second(tr.Write("/A/g", 0, []byte("gee"))),
		second(tr.Link("/f", "/A/h")),
		second(tr.Symlink("/f", "/s")),
		second(tr.Mkfifo("/p")),
		second(tr.SetXattr("/A", "user.d", []byte("dir"))),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func second[T any](_ T, err error) error { return err }

// editAt is Edit of the inode path names.
func editAt(tr *Tree, path string) (*Node, error) {
	n, err := tr.Lookup(path)
	if err != nil {
		return nil, err
	}
	return tr.Edit(n.Ino), nil
}

// metaMutations change a metaTree's metadata, one per entry: through
// every Tree mutator and through Edit.
var metaMutations = []struct {
	name  string
	apply func(tr *Tree) error
}{
	{"create", func(tr *Tree) error { return second(tr.Create("/A/new")) }},
	{"mkdir", func(tr *Tree) error { return second(tr.Mkdir("/B/sub")) }},
	{"symlink", func(tr *Tree) error { return second(tr.Symlink("/A", "/B/s")) }},
	{"mkfifo", func(tr *Tree) error { return second(tr.Mkfifo("/A/q")) }},
	{"link", func(tr *Tree) error { return second(tr.Link("/A/g", "/B/l")) }},
	{"unlink-last", func(tr *Tree) error { _, _, err := tr.Unlink("/A/g"); return err }},
	{"unlink-one-of-two", func(tr *Tree) error { _, _, err := tr.Unlink("/A/h"); return err }},
	{"rmdir", func(tr *Tree) error { return second(tr.Rmdir("/B")) }},
	{"rename-across", func(tr *Tree) error { _, _, err := tr.Rename("/A/g", "/B/g"); return err }},
	{"rename-within", func(tr *Tree) error { _, _, err := tr.Rename("/A/g", "/A/g2"); return err }},
	{"rename-dir-over-dir", func(tr *Tree) error { _, _, err := tr.Rename("/A", "/B"); return err }},
	{"rename-over-file", func(tr *Tree) error { _, _, err := tr.Rename("/A/g", "/f"); return err }},
	{"rename-dir-into-dir", func(tr *Tree) error { _, _, err := tr.Rename("/A", "/B/A"); return err }},
	{"setxattr-dir", func(tr *Tree) error { return second(tr.SetXattr("/A", "user.d", []byte("new"))) }},
	{"setxattr-first", func(tr *Tree) error { return second(tr.SetXattr("/A/g", "user.x", []byte("x"))) }},
	{"removexattr", func(tr *Tree) error { return second(tr.RemoveXattr("/A", "user.d")) }},
	{"extents", func(tr *Tree) error {
		return second(tr.Falloc("/A/g", filesys.FallocKeepSize, 8192, 4096))
	}},
	{"write-other", func(tr *Tree) error { return second(tr.Write("/A/g", 1, []byte("ZZ"))) }},
	{"truncate-other", func(tr *Tree) error { return second(tr.Truncate("/A/g", 1)) }},
	{"set-next-ino", func(tr *Tree) error { tr.SetNextIno(100); return nil }},
	{"insert-node", func(tr *Tree) error {
		return tr.InsertNode(&Node{Ino: 50, Kind: filesys.KindRegular, Nlink: 1, Data: Flat([]byte("in"))}, RootIno, "ins")
	}},
	{"insert-node-over", func(tr *Tree) error {
		return tr.InsertNode(&Node{Ino: 51, Kind: filesys.KindRegular, Nlink: 1}, tr.Root().Children["A"], "h")
	}},
	{"add-orphan", func(tr *Tree) error { tr.AddOrphan(&Node{Ino: 60, Kind: filesys.KindFifo, Nlink: 1}, true); return nil }},
	{"remove-node-and-sweep", func(tr *Tree) error {
		n, err := tr.Lookup("/A/g")
		if err != nil {
			return err
		}
		tr.RemoveNode(n.Ino)
		tr.SweepUnreachable(nil, nil)
		return nil
	}},
	{"edit-nlink", func(tr *Tree) error { n, err := editAt(tr, "/f"); n.Nlink = 7; return err }},
	{"edit-children", func(tr *Tree) error {
		n, err := editAt(tr, "/A")
		delete(n.Children, "h")
		n.Children["x"] = RootIno + 1
		return err
	}},
	{"edit-xattrs", func(tr *Tree) error { n, err := editAt(tr, "/A"); n.Xattrs["user.d"] = []byte("e"); return err }},
	{"edit-extents", func(tr *Tree) error { n, err := editAt(tr, "/A/g"); n.AllocRange(0, 20000); return err }},
	{"edit-target", func(tr *Tree) error { n, err := editAt(tr, "/s"); n.Target = "/A"; return err }},
	{"edit-root", func(tr *Tree) error { tr.Edit(RootIno).Nlink = 9; return nil }},
}

// dumpTree renders everything a tree holds: the allocation counter and
// every inode with its metadata, entries, xattrs, extents and a digest of
// its content.
func dumpTree(tr *Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next %d\n", tr.NextIno())
	for _, ino := range tr.Inos() {
		n := tr.Get(ino)
		fmt.Fprintf(&b, "%d kind %d nlink %d size %d data %x target %q extents %v\n",
			n.Ino, n.Kind, n.Nlink, n.Size(), sha256.Sum256(n.Data.Bytes()), n.Target, n.Extents)
		for _, k := range slices.Sorted(maps.Keys(n.Xattrs)) {
			fmt.Fprintf(&b, "  xattr %s=%q\n", k, n.Xattrs[k])
		}
		for _, k := range slices.Sorted(maps.Keys(n.Children)) {
			fmt.Fprintf(&b, "  entry %s -> %d\n", k, n.Children[k])
		}
	}
	return b.String()
}

// checkCloneIsolation mutates one of a tree and its clone and checks that
// the other, and a second-generation clone of each, still dump as before.
func checkCloneIsolation(t *testing.T, name string, apply func(*Tree) error) {
	t.Helper()
	for _, mutateClone := range []bool{false, true} {
		orig := metaTree(t)
		want := dumpTree(orig)
		clone := orig.Clone()
		mutated, other := orig, clone
		if mutateClone {
			mutated, other = clone, orig
		}
		grandchild := other.Clone()
		if err := apply(mutated); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dumpTree(mutated) == want {
			t.Fatalf("%s: the mutation changed nothing", name)
		}
		if got := dumpTree(other); got != want {
			t.Errorf("%s (mutate clone %v): the other tree changed:\n%s\nwant:\n%s", name, mutateClone, got, want)
		}
		if got := dumpTree(grandchild); got != want {
			t.Errorf("%s (mutate clone %v): the other tree's clone changed", name, mutateClone)
		}
		// The unmutated side writes next: the mutated side keeps its state.
		after := dumpTree(mutated)
		if _, err := other.Create("/later"); err != nil {
			t.Fatal(err)
		}
		if got := dumpTree(mutated); got != after {
			t.Errorf("%s (mutate clone %v): writing the other tree afterwards reached the mutated one", name, mutateClone)
		}
	}
}

// TestEditCopiesOnlyShared pins when Edit copies: a node the tree made or
// already copied is written in place; one a clone shares, and one a
// decoded tree holds, is copied once.
func TestEditCopiesOnlyShared(t *testing.T) {
	tr := metaTree(t)
	f, _ := tr.Lookup("/f")
	if tr.Edit(f.Ino) != f {
		t.Fatal("a node the tree made must be edited in place")
	}
	c := tr.Clone()
	for _, side := range []*Tree{tr, c} {
		e := side.Edit(f.Ino)
		if e == f {
			t.Fatal("a node a clone shares must be copied before a write")
		}
		if side.Edit(f.Ino) != e || side.Get(f.Ino) != e {
			t.Fatal("the copy must be installed and edited in place from then on")
		}
	}
	if tr.Edit(12345) != nil {
		t.Fatal("Edit of a missing inode must return nil")
	}

	e := codec.NewEncoder(0)
	tr.Encode(e)
	dec, err := DecodeTree(codec.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.id != 0 {
		t.Fatal("a decoded tree must own nothing: it may be shared")
	}
	root := dec.Root()
	_ = dec.Clone()
	if dec.id != 0 || dec.Root() != root {
		t.Fatal("cloning a tree that owns nothing must not write it")
	}
	if dec.Edit(RootIno) == root {
		t.Fatal("a decoded node must be copied before a write")
	}
}

// TestConcurrentClonesOfDecodedTree: many goroutines clone one decoded
// tree, as recovery does with a tree the memo shares, and edit their
// clones through every mutator and Edit. Each clone must end as a private
// tree would, and the shared tree must not change. Run it under -race.
func TestConcurrentClonesOfDecodedTree(t *testing.T) {
	e := codec.NewEncoder(0)
	metaTree(t).Encode(e)
	decode := func() *Tree {
		tr, err := DecodeTree(codec.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	want := make([]string, len(metaMutations))
	for i, m := range metaMutations {
		tr := decode()
		if err := m.apply(tr); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		want[i] = dumpTree(tr)
	}
	shared := decode()
	before := dumpTree(shared)

	const workers = 8
	errs := make(chan error, workers*len(metaMutations))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, m := range metaMutations {
				c := shared.Clone()
				if err := m.apply(c); err != nil {
					errs <- fmt.Errorf("%s: %v", m.name, err)
					continue
				}
				// A clone of the clone, edited too, must not disturb it.
				if err := second(c.Clone().Create("/other")); err != nil {
					errs <- err
				}
				if got := dumpTree(c); got != want[i] {
					errs <- fmt.Errorf("%s: a clone of the shared tree ended as\n%s\nwant\n%s", m.name, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := dumpTree(shared); got != before {
		t.Errorf("editing clones changed the shared tree:\n%s\nwant:\n%s", got, before)
	}
}
