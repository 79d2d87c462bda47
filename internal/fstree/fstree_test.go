package fstree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"b3/internal/codec"
	"b3/internal/filesys"
)

func TestCreateLookup(t *testing.T) {
	tr := New()
	if _, err := tr.Mkdir("/A"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Create("/A/foo"); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Lookup("/A/foo")
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != filesys.KindRegular || n.Nlink != 1 || n.Size() != 0 {
		t.Fatalf("bad node: %+v", n)
	}
	if _, err := tr.Create("/A/foo"); !errors.Is(err, filesys.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := tr.Create("/B/foo"); !errors.Is(err, filesys.ErrNotExist) {
		t.Fatalf("create in missing dir: %v", err)
	}
	if _, err := tr.Create("/A/foo/x"); !errors.Is(err, filesys.ErrNotDir) {
		t.Fatalf("create under file: %v", err)
	}
}

func TestMkdirNlink(t *testing.T) {
	tr := New()
	root := tr.Root()
	if root.Nlink != 2 {
		t.Fatalf("root nlink = %d", root.Nlink)
	}
	if _, err := tr.Mkdir("/A"); err != nil {
		t.Fatal(err)
	}
	if root.Nlink != 3 {
		t.Fatalf("root nlink after mkdir = %d", root.Nlink)
	}
	if _, err := tr.Rmdir("/A"); err != nil {
		t.Fatal(err)
	}
	if root.Nlink != 2 {
		t.Fatalf("root nlink after rmdir = %d", root.Nlink)
	}
}

func TestLinkUnlink(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Link("/foo", "/bar")
	if err != nil {
		t.Fatal(err)
	}
	if n.Nlink != 2 {
		t.Fatalf("nlink = %d", n.Nlink)
	}
	if _, err := tr.Link("/foo", "/bar"); !errors.Is(err, filesys.ErrExist) {
		t.Fatalf("link over existing: %v", err)
	}
	if _, err := tr.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Link("/d", "/d2"); !errors.Is(err, filesys.ErrIsDir) {
		t.Fatalf("hard link to dir: %v", err)
	}

	_, gone, err := tr.Unlink("/foo")
	if err != nil || gone {
		t.Fatalf("unlink: gone=%v err=%v", gone, err)
	}
	n2, err := tr.Lookup("/bar")
	if err != nil || n2.Nlink != 1 {
		t.Fatalf("bar after unlink: %v nlink=%d", err, n2.Nlink)
	}
	_, gone, err = tr.Unlink("/bar")
	if err != nil || !gone {
		t.Fatalf("final unlink: gone=%v err=%v", gone, err)
	}
	if tr.Exists("/bar") {
		t.Fatal("bar still exists")
	}
	if _, _, err := tr.Unlink("/d"); !errors.Is(err, filesys.ErrIsDir) {
		t.Fatalf("unlink dir: %v", err)
	}
}

func TestHardLinkSharesData(t *testing.T) {
	tr := New()
	if _, err := tr.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Link("/foo", "/bar"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Write("/foo", 0, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Lookup("/bar")
	if string(n.Data.Bytes()) != "shared" {
		t.Fatalf("hard link does not share data: %q", n.Data.Bytes())
	}
}

func TestRmdirSemantics(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustCreate(t, tr, "/A/foo")
	if _, err := tr.Rmdir("/A"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if _, _, err := tr.Unlink("/A/foo"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Rmdir("/A"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Rmdir("/A"); !errors.Is(err, filesys.ErrNotExist) {
		t.Fatalf("rmdir missing: %v", err)
	}
	mustCreate(t, tr, "/f")
	if _, err := tr.Rmdir("/f"); !errors.Is(err, filesys.ErrNotDir) {
		t.Fatalf("rmdir file: %v", err)
	}
}

func TestRenameBasic(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustMkdir(t, tr, "/B")
	mustCreate(t, tr, "/A/foo")
	if _, err := tr.Write("/A/foo", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	moved, replaced, err := tr.Rename("/A/foo", "/B/bar")
	if err != nil || replaced != nil {
		t.Fatalf("rename: %v replaced=%v", err, replaced)
	}
	if moved.Size() != 1 {
		t.Fatal("moved node lost data")
	}
	if tr.Exists("/A/foo") || !tr.Exists("/B/bar") {
		t.Fatal("rename namespace wrong")
	}
}

func TestRenameReplaceFile(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/foo")
	mustCreate(t, tr, "/bar")
	if _, err := tr.Write("/foo", 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	moved, replaced, err := tr.Rename("/foo", "/bar")
	if err != nil || replaced == nil {
		t.Fatalf("rename replace: %v", err)
	}
	if moved == replaced {
		t.Fatal("moved == replaced")
	}
	n, _ := tr.Lookup("/bar")
	if string(n.Data.Bytes()) != "new" {
		t.Fatalf("bar content = %q", n.Data.Bytes())
	}
	if tr.Exists("/foo") {
		t.Fatal("foo still present")
	}
}

func TestRenameReplacedHardLinkSurvives(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/victim")
	if _, err := tr.Link("/victim", "/keep"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, tr, "/src")
	_, replaced, err := tr.Rename("/src", "/victim")
	if err != nil || replaced == nil {
		t.Fatal(err)
	}
	n, err := tr.Lookup("/keep")
	if err != nil || n.Nlink != 1 {
		t.Fatalf("second link must survive replace: %v nlink=%d", err, n.Nlink)
	}
}

func TestRenameDirOverEmptyDir(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustMkdir(t, tr, "/A/B")
	mustMkdir(t, tr, "/A/C")
	mustCreate(t, tr, "/A/B/foo")

	// dir over non-empty dir fails
	mustCreate(t, tr, "/A/C/x")
	if _, _, err := tr.Rename("/A/B", "/A/C"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("rename over non-empty dir: %v", err)
	}
	if _, _, err := tr.Unlink("/A/C/x"); err != nil {
		t.Fatal(err)
	}

	// dir over empty dir succeeds, contents move
	if _, _, err := tr.Rename("/A/B", "/A/C"); err != nil {
		t.Fatal(err)
	}
	if !tr.Exists("/A/C/foo") || tr.Exists("/A/B") {
		t.Fatal("dir-over-dir rename wrong")
	}
}

func TestRenameKindMismatch(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/d")
	mustCreate(t, tr, "/f")
	if _, _, err := tr.Rename("/d", "/f"); !errors.Is(err, filesys.ErrNotDir) {
		t.Fatalf("dir over file: %v", err)
	}
	if _, _, err := tr.Rename("/f", "/d"); !errors.Is(err, filesys.ErrIsDir) {
		t.Fatalf("file over dir: %v", err)
	}
}

func TestRenameIntoOwnSubtree(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustMkdir(t, tr, "/A/B")
	if _, _, err := tr.Rename("/A", "/A/B/A"); !errors.Is(err, filesys.ErrInvalid) {
		t.Fatalf("rename into own subtree: %v", err)
	}
}

func TestRenameDirUpdatesParentNlink(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustMkdir(t, tr, "/B")
	mustMkdir(t, tr, "/A/sub")
	a, _ := tr.Lookup("/A")
	b, _ := tr.Lookup("/B")
	if a.Nlink != 3 || b.Nlink != 2 {
		t.Fatalf("pre: a=%d b=%d", a.Nlink, b.Nlink)
	}
	if _, _, err := tr.Rename("/A/sub", "/B/sub"); err != nil {
		t.Fatal(err)
	}
	if a.Nlink != 2 || b.Nlink != 3 {
		t.Fatalf("post: a=%d b=%d", a.Nlink, b.Nlink)
	}
}

func TestWriteExtendsAndAllocates(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if _, err := tr.Write("/f", 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Lookup("/f")
	if n.Size() != 4096 || n.Sectors() != 8 {
		t.Fatalf("size=%d sectors=%d", n.Size(), n.Sectors())
	}
	// Overwrite in the middle does not change size or allocation.
	if _, err := tr.Write("/f", 100, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 4096 || n.Sectors() != 8 {
		t.Fatalf("after overwrite size=%d sectors=%d", n.Size(), n.Sectors())
	}
	if string(n.Data.Bytes()[100:103]) != "mid" {
		t.Fatal("overwrite content lost")
	}
	// Append extends size and allocation.
	if _, err := tr.Write("/f", 4096, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 4196 || n.Sectors() != 16 {
		t.Fatalf("after append size=%d sectors=%d", n.Size(), n.Sectors())
	}
}

func TestSparseWrite(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	// Write one block at offset 16K: file has a hole at the front.
	if _, err := tr.Write("/f", 16384, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Lookup("/f")
	if n.Size() != 20480 {
		t.Fatalf("size = %d", n.Size())
	}
	if n.Sectors() != 8 {
		t.Fatalf("sectors = %d (hole must not be allocated)", n.Sectors())
	}
	if len(n.Extents) != 1 || n.Extents[0].Off != 16384 {
		t.Fatalf("extents = %v", n.Extents)
	}
}

func TestTruncate(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if _, err := tr.Write("/f", 0, bytes.Repeat([]byte{7}, 8192)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Truncate("/f", 4096); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Lookup("/f")
	if n.Size() != 4096 || n.Sectors() != 8 {
		t.Fatalf("shrink: size=%d sectors=%d", n.Size(), n.Sectors())
	}
	if _, err := tr.Truncate("/f", 12288); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 12288 || n.Sectors() != 8 {
		t.Fatalf("grow: size=%d sectors=%d (growth must be a hole)", n.Size(), n.Sectors())
	}
	for _, b := range n.Data.Bytes()[4096:] {
		if b != 0 {
			t.Fatal("grown region must read zero")
		}
	}
	if _, err := tr.Truncate("/f", -1); !errors.Is(err, filesys.ErrInvalid) {
		t.Fatalf("negative truncate: %v", err)
	}
}

func TestFallocModes(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if _, err := tr.Write("/f", 0, bytes.Repeat([]byte{1}, 16384)); err != nil {
		t.Fatal(err)
	}
	n, _ := tr.Lookup("/f")

	// KEEP_SIZE beyond EOF: allocation grows, size does not (new-bug #8 shape).
	if _, err := tr.Falloc("/f", filesys.FallocKeepSize, 16384, 4096); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 16384 || n.Sectors() != 40 {
		t.Fatalf("keep-size: size=%d sectors=%d", n.Size(), n.Sectors())
	}

	// Default mode extends size.
	if _, err := tr.Falloc("/f", filesys.FallocDefault, 20480, 4096); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 24576 || n.Sectors() != 48 {
		t.Fatalf("default: size=%d sectors=%d", n.Size(), n.Sectors())
	}

	// Punch hole zeroes and deallocates whole blocks.
	if _, err := tr.Falloc("/f", filesys.FallocPunchHole, 4096, 8192); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 24576 || n.Sectors() != 32 {
		t.Fatalf("punch: size=%d sectors=%d", n.Size(), n.Sectors())
	}
	for _, b := range n.Data.Bytes()[4096:12288] {
		if b != 0 {
			t.Fatal("punched range must read zero")
		}
	}

	// Partial-page punch keeps the edge blocks allocated (workload 17 shape).
	if _, err := tr.Falloc("/f", filesys.FallocPunchHole, 100, 200); err != nil {
		t.Fatal(err)
	}
	if n.Sectors() != 32 {
		t.Fatalf("partial punch changed allocation: %d", n.Sectors())
	}
	for _, b := range n.Data.Bytes()[100:300] {
		if b != 0 {
			t.Fatal("partial punch must still zero bytes")
		}
	}

	// Zero range keep-size zeroes without extending size.
	if _, err := tr.Write("/f", 0, bytes.Repeat([]byte{9}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Falloc("/f", filesys.FallocZeroRangeKeepSize, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if d := n.Data.Bytes(); d[0] != 0 || d[999] != 0 || d[1000] != 9 {
		t.Fatal("zero-range content wrong")
	}
	if n.Size() != 24576 {
		t.Fatalf("zero-range keep-size changed size: %d", n.Size())
	}
}

func TestXattr(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if _, err := tr.SetXattr("/f", "user.a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SetXattr("/f", "user.b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RemoveXattr("/f", "user.a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RemoveXattr("/f", "user.a"); !errors.Is(err, filesys.ErrNoData) {
		t.Fatalf("double removexattr: %v", err)
	}
	n, _ := tr.Lookup("/f")
	if len(n.Xattrs) != 1 || string(n.Xattrs["user.b"]) != "2" {
		t.Fatalf("xattrs = %v", n.Xattrs)
	}
}

func TestSymlinkAndFifo(t *testing.T) {
	tr := New()
	n, err := tr.Symlink("/target/path", "/ln")
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != filesys.KindSymlink || n.Target != "/target/path" {
		t.Fatalf("symlink node: %+v", n)
	}
	if n.Size() != int64(len("/target/path")) {
		t.Fatalf("symlink size = %d", n.Size())
	}
	f, err := tr.Mkfifo("/pipe")
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != filesys.KindFifo {
		t.Fatalf("fifo kind: %v", f.Kind)
	}
}

func TestPathsOf(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustCreate(t, tr, "/foo")
	n, err := tr.Link("/foo", "/A/bar")
	if err != nil {
		t.Fatal(err)
	}
	paths := tr.PathsOf(n.Ino)
	if len(paths) != 2 || paths[0] != "/A/bar" || paths[1] != "/foo" {
		t.Fatalf("paths = %v", paths)
	}
}

// TestReachableMatchesPathsOf: Reachable(ino) equals len(PathsOf(ino)) > 0
// for every inode of metaTree and of metaTree after each metadata
// mutation, for orphans, for inodes only a dangling entry names, for a
// directory aliased under two names, for the root and for an unused
// number, and it allocates nothing.
func TestReachableMatchesPathsOf(t *testing.T) {
	type named struct {
		name string
		tr   *Tree
	}
	trees := []named{{"meta", metaTree(t)}}
	for _, m := range metaMutations {
		tr := metaTree(t)
		if err := m.apply(tr); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		trees = append(trees, named{m.name, tr})
	}
	odd := metaTree(t)
	odd.AddOrphan(&Node{Ino: 60, Kind: filesys.KindRegular, Nlink: 1}, true)
	odd.AddOrphan(&Node{Ino: 61, Kind: filesys.KindDir, Nlink: 2, Children: map[string]uint64{"in-orphan": 62}}, true)
	odd.AddOrphan(&Node{Ino: 62, Kind: filesys.KindRegular, Nlink: 1}, true)
	a, err := odd.Lookup("/A")
	if err != nil {
		t.Fatal(err)
	}
	if err := odd.InsertNode(a, odd.Root().Ino, "alias"); err != nil {
		t.Fatal(err)
	}
	g, err := odd.Lookup("/A/g")
	if err != nil {
		t.Fatal(err)
	}
	odd.RemoveNode(g.Ino) // /A/g now dangles
	trees = append(trees, named{"orphans, alias, dangling", odd})

	seen := map[bool]int{}
	for _, c := range trees {
		inos := append(c.tr.Inos(), g.Ino, c.tr.NextIno())
		for _, ino := range inos {
			want := len(c.tr.PathsOf(ino)) > 0
			if got := c.tr.Reachable(ino); got != want {
				t.Errorf("%s: Reachable(%d) = %v, PathsOf %v", c.name, ino, got, c.tr.PathsOf(ino))
			}
			seen[want]++
		}
	}
	if seen[true] == 0 || seen[false] < 4 {
		t.Fatalf("the table reaches %d inodes and misses %d: it does not test both answers", seen[true], seen[false])
	}
	if allocs := testing.AllocsPerRun(10, func() { odd.Reachable(62) }); allocs != 0 {
		t.Errorf("Reachable allocates %v times, want 0", allocs)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := New()
	mustCreate(t, tr, "/f")
	if _, err := tr.Write("/f", 0, []byte("orig")); err != nil {
		t.Fatal(err)
	}
	c := tr.Clone()
	if _, err := tr.Write("/f", 0, []byte("mut!")); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, tr, "/new")
	cn, err := c.Lookup("/f")
	if err != nil || string(cn.Data.Bytes()) != "orig" {
		t.Fatalf("clone shares data: %q %v", cn.Data.Bytes(), err)
	}
	if c.Exists("/new") {
		t.Fatal("clone shares namespace")
	}
}

// contentMutations applies every content mutator to /f, one per entry.
var contentMutations = []struct {
	name  string
	apply func(tr *Tree) error
}{
	{"write", func(tr *Tree) error { _, err := tr.Write("/f", 100, bytes.Repeat([]byte{7}, 300)); return err }},
	{"write-append", func(tr *Tree) error { _, err := tr.Write("/f", 12000, []byte("tail")); return err }},
	{"truncate-shrink", func(tr *Tree) error { _, err := tr.Truncate("/f", 50); return err }},
	{"truncate-grow", func(tr *Tree) error { _, err := tr.Truncate("/f", 20000); return err }},
	{"falloc", func(tr *Tree) error { _, err := tr.Falloc("/f", filesys.FallocDefault, 8000, 16384); return err }},
	{"falloc-keep-size", func(tr *Tree) error { _, err := tr.Falloc("/f", filesys.FallocKeepSize, 16384, 8192); return err }},
	{"punch-hole", func(tr *Tree) error { _, err := tr.Falloc("/f", filesys.FallocPunchHole, 10, 9000); return err }},
	{"zero-range", func(tr *Tree) error { _, err := tr.Falloc("/f", filesys.FallocZeroRange, 5, 15000); return err }},
	{"zero-range-keep-size", func(tr *Tree) error {
		_, err := tr.Falloc("/f", filesys.FallocZeroRangeKeepSize, 5, 100)
		return err
	}},
	{"setxattr", func(tr *Tree) error { _, err := tr.SetXattr("/f", "user.a", []byte("new")); return err }},
	{"removexattr", func(tr *Tree) error { _, err := tr.RemoveXattr("/f", "user.a"); return err }},
	{"writeat", func(tr *Tree) error { n, err := editPath(tr, "/f"); n.WriteAt(3, []byte("xyz")); return err }},
	{"resize-shrink", func(tr *Tree) error {
		n, err := editPath(tr, "/f")
		n.Resize(7)
		for p := range n.Data.Pages() {
			if cap(p) != len(p) {
				return errors.New("shrunk Data keeps spare capacity: an append would write into shared bytes")
			}
		}
		return err
	}},
	{"resize-grow", func(tr *Tree) error { n, err := editPath(tr, "/f"); n.Resize(9000); return err }},
}

// editPath is Lookup returning the node ready to be written (Tree.Edit).
func editPath(tr *Tree, path string) (*Node, error) {
	n, err := tr.Lookup(path)
	if err != nil {
		return nil, err
	}
	return tr.Edit(n.Ino), nil
}

// contentTree returns a tree whose /f has 12000 bytes of content, allocated
// extents and an xattr.
func contentTree(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	mustCreate(t, tr, "/f")
	data := make([]byte, 12000)
	for i := range data {
		data[i] = byte(i%251) + 1
	}
	if _, err := tr.Write("/f", 0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SetXattr("/f", "user.a", []byte("old")); err != nil {
		t.Fatal(err)
	}
	return tr
}

// pagedContentTree is contentTree with /f made paged by a partial write of
// its second page.
func pagedContentTree(t *testing.T) *Tree {
	t.Helper()
	tr := contentTree(t)
	if _, err := tr.Write("/f", 4096, bytes.Repeat([]byte{9}, 4096)); err != nil {
		t.Fatal(err)
	}
	if n, _ := tr.Lookup("/f"); n.Data.pages == nil {
		t.Fatal("a partial write of a multi-page file left it flat")
	}
	return tr
}

// nodeContent is a deep copy of a node's shared content.
type nodeContent struct {
	data    Content
	extents []filesys.Extent
	xattr   []byte
}

func (c nodeContent) equal(o nodeContent) bool {
	return bytes.Equal(c.data.Bytes(), o.data.Bytes()) && bytes.Equal(c.xattr, o.xattr) &&
		fmt.Sprint(c.extents) == fmt.Sprint(o.extents)
}

func contentOf(t *testing.T, tr *Tree) (deep, shared nodeContent) {
	t.Helper()
	n, err := tr.Lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	shared = nodeContent{n.Data, n.Extents, n.Xattrs["user.a"]}
	deep = nodeContent{Flat(bytes.Clone(n.Data.Bytes())), append([]filesys.Extent(nil), n.Extents...), bytes.Clone(n.Xattrs["user.a"])}
	return deep, shared
}

// TestCloneSharesContentCopyOnWrite pins the copy-on-write contract that
// lets clones share Data, Extents and xattr values: mutating either side
// leaves the other side, and every content or page read before the
// mutation, byte-identical, whether the shared content is flat or paged.
// Clones share whole nodes too, so it also changes the metadata of either
// side through every Tree mutator and Edit (link counts, entries, xattrs,
// extents, the allocation counter) and checks the other side, and a clone
// of it, unchanged.
func TestCloneSharesContentCopyOnWrite(t *testing.T) {
	for _, m := range metaMutations {
		checkCloneIsolation(t, m.name, m.apply)
	}
	for _, build := range []func(*testing.T) *Tree{contentTree, pagedContentTree} {
		for _, m := range contentMutations {
			for _, mutateClone := range []bool{false, true} {
				orig := build(t)
				clone := orig.Clone()
				mutated, other := orig, clone
				if mutateClone {
					mutated, other = clone, orig
				}
				want, earlier := contentOf(t, mutated)
				if err := m.apply(mutated); err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if got, _ := contentOf(t, other); !got.equal(want) {
					t.Errorf("%s (mutate clone %v): the other tree's content changed", m.name, mutateClone)
				}
				if !earlier.equal(want) {
					t.Errorf("%s (mutate clone %v): content read before the mutation changed", m.name, mutateClone)
				}
			}
		}
	}
}

// TestDecodedTreeLeavesPayload: decoded nodes alias the payload, so
// mutating the decoded tree must never write into it.
func TestDecodedTreeLeavesPayload(t *testing.T) {
	e := codec.NewEncoder(0)
	contentTree(t).Encode(e)
	for _, m := range contentMutations {
		payload := bytes.Clone(e.Bytes())
		tr, err := DecodeTree(codec.NewDecoder(payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.apply(tr); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !bytes.Equal(payload, e.Bytes()) {
			t.Errorf("%s: mutating the decoded tree changed the payload", m.name)
		}
	}
}

// TestWriteAtAdoptsCoveringWrite pins when WriteAt installs the caller's
// buffer instead of a copy: a covering write (off 0, at least as long as
// the file) installs it whole, flat and capped at its length, without
// allocating; a partial write of a file past one page installs each page
// it wholly writes as a view of the buffer, capped at its length. Every
// other byte is copied: changing the buffer outside the adopted pages
// afterwards does not reach the file.
func TestWriteAtAdoptsCoveringWrite(t *testing.T) {
	shares := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	n := &Node{Kind: filesys.KindRegular, Data: Flat([]byte("old content"))}
	spare := make([]byte, 20, 64)
	zeros := Zeros(100) // cut from the larger shared zero page
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"longer, spare capacity", spare},
		{"as long", bytes.Repeat([]byte{5}, 20)},
		{"zeros", zeros},
		{"longer than a page", make([]byte, 3*pageSize)},
	} {
		n.WriteAt(0, c.data)
		d := n.Data.Bytes()
		if n.Data.pages != nil || !shares(d, c.data) || len(d) != len(c.data) || cap(d) != len(d) {
			t.Errorf("%s: paged %v, shares %v, len %d cap %d; want the caller's array, flat, with cap == len %d",
				c.name, n.Data.pages != nil, shares(d, c.data), len(d), cap(d), len(c.data))
		}
	}
	if cap(zeros) != len(zeros) {
		t.Errorf("Zeros(100): cap %d, want 100", cap(zeros))
	}

	for _, c := range []struct {
		name              string
		size, off, length int64
		adopted           int // pages installed as views of the buffer
	}{
		{"at an offset", 100, 1, 200, 0},
		{"shorter than the file", 100, 0, 99, 0},
		{"within a page of a longer file", 3 * pageSize, 10, 100, 0},
		{"pages in the middle", 5 * pageSize, pageSize, 2 * pageSize, 2},
		{"across pages, unaligned", 5 * pageSize, 100, 3 * pageSize, 2},
		{"an append", 4 * pageSize, 4 * pageSize, pageSize, 1},
		{"past a gap, with a short tail", pageSize + 10, 3 * pageSize, pageSize + 7, 2},
	} {
		n := &Node{Kind: filesys.KindRegular, Data: Flat(bytes.Repeat([]byte{1}, int(c.size)))}
		data := bytes.Repeat([]byte{2}, int(c.length))
		n.WriteAt(c.off, data)
		inPage := make([]bool, len(data)) // bytes the file holds in an adopted page
		adopted := 0
		for i := range n.Data.numPages() {
			p := n.Data.page(i)
			lo := int64(i) * pageSize
			if n.Data.pages == nil || lo < c.off || lo+int64(len(p)) > c.off+c.length {
				continue
			}
			adopted++
			if !shares(p, data[lo-c.off:]) || cap(p) != len(p) {
				t.Errorf("write %s: page %d is not a capped view of the caller's buffer", c.name, i)
			}
			for j := range p {
				inPage[lo-c.off+int64(j)] = true
			}
		}
		if adopted != c.adopted {
			t.Errorf("write %s: %d pages adopted, want %d", c.name, adopted, c.adopted)
		}
		want := bytes.Clone(n.Data.Bytes())
		for i := range data {
			if !inPage[i] {
				data[i] = 0xaa
			}
		}
		if !bytes.Equal(n.Data.Bytes(), want) {
			t.Errorf("write %s aliases the caller's buffer outside the pages it adopted", c.name)
		}
	}

	// A partial write after an adoption leaves the adopted buffer alone.
	for _, size := range []int{50, 5 * int(pageSize)} {
		adopted := bytes.Repeat([]byte{3}, size)
		want := bytes.Clone(adopted)
		n = &Node{Kind: filesys.KindRegular}
		n.WriteAt(0, adopted)
		n.WriteAt(10, []byte("partial"))
		n.WriteAt(40, make([]byte, 30))
		n.WriteAt(pageSize, []byte("next page"))
		if !bytes.Equal(adopted, want) {
			t.Errorf("%d bytes: a partial write wrote into the adopted buffer", size)
		}
		if d := n.Data.Bytes(); string(d[10:17]) != "partial" || len(d) != max(size, int(pageSize)+9) {
			t.Errorf("%d bytes: partial writes after adoption: %q", size, d[:17])
		}
	}

	n = &Node{Kind: filesys.KindRegular}
	src := make([]byte, 4096)
	if allocs := testing.AllocsPerRun(100, func() { n.WriteAt(0, src) }); allocs != 0 {
		t.Errorf("covering WriteAt allocates %v times, want 0", allocs)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := New()
	mustMkdir(t, tr, "/A")
	mustCreate(t, tr, "/A/foo")
	if _, err := tr.Write("/A/foo", 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Link("/A/foo", "/A/bar"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SetXattr("/A/foo", "user.x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Symlink("/A/foo", "/ln"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Falloc("/A/foo", filesys.FallocKeepSize, 8192, 4096); err != nil {
		t.Fatal(err)
	}

	e := codec.NewEncoder(256)
	tr.Encode(e)
	got, err := DecodeTree(codec.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Re-encode: must be byte-identical (determinism).
	e2 := codec.NewEncoder(256)
	got.Encode(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}

	n, err := got.Lookup("/A/foo")
	if err != nil || string(n.Data.Bytes()) != "data" || n.Nlink != 2 {
		t.Fatalf("decoded foo: %v %+v", err, n)
	}
	ln, err := got.Lookup("/ln")
	if err != nil || ln.Target != "/A/foo" {
		t.Fatalf("decoded symlink: %v", err)
	}
	if got.NextIno() != tr.NextIno() {
		t.Fatal("nextIno not preserved")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeTree(codec.NewDecoder([]byte{0xFF, 0xFF})); err == nil {
		t.Fatal("expected error decoding garbage")
	}
	// Valid prefix, truncated body.
	tr := New()
	mustCreate(t, tr, "/f")
	e := codec.NewEncoder(0)
	tr.Encode(e)
	if _, err := DecodeTree(codec.NewDecoder(e.Bytes()[:e.Len()/2])); err == nil {
		t.Fatal("expected error decoding truncated tree")
	}
}

// Property: random op sequences keep namespace invariants: nlink of files
// equals number of paths referencing them, every child ino resolves, and
// dir nlink = 2 + number of subdirs.
func TestQuickInvariants(t *testing.T) {
	paths := []string{"/foo", "/bar", "/A", "/B", "/A/foo", "/A/bar", "/B/foo", "/B/bar"}
	f := func(ops []uint16) bool {
		tr := New()
		for _, op := range ops {
			p := paths[int(op)%len(paths)]
			q := paths[int(op>>4)%len(paths)]
			switch op % 7 {
			case 0:
				_, _ = tr.Create(p)
			case 1:
				_, _ = tr.Mkdir(p)
			case 2:
				_, _ = tr.Link(p, q)
			case 3:
				_, _, _ = tr.Unlink(p)
			case 4:
				_, _ = tr.Rmdir(p)
			case 5:
				_, _, _ = tr.Rename(p, q)
			case 6:
				_, _ = tr.Write(p, int64(op%8)*512, bytes.Repeat([]byte{byte(op)}, 700))
			}
		}
		return checkInvariants(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func checkInvariants(tr *Tree) bool {
	refs := map[uint64]int{}
	subdirs := map[uint64]int{}
	ok := true
	tr.Walk(func(path string, n *Node) {
		if path == "/" {
			return
		}
		refs[n.Ino]++
	})
	tr.Walk(func(path string, n *Node) {
		if n.Kind != filesys.KindDir {
			return
		}
		for _, childIno := range n.Children {
			child := tr.Get(childIno)
			if child == nil {
				ok = false
				continue
			}
			if child.Kind == filesys.KindDir {
				subdirs[n.Ino]++
			}
		}
	})
	tr.Walk(func(path string, n *Node) {
		switch n.Kind {
		case filesys.KindDir:
			want := 2 + subdirs[n.Ino]
			if n.Nlink != want {
				ok = false
			}
		default:
			if n.Nlink != refs[n.Ino] {
				ok = false
			}
		}
	})
	return ok
}

func mustCreate(t *testing.T, tr *Tree, p string) {
	t.Helper()
	if _, err := tr.Create(p); err != nil {
		t.Fatal(err)
	}
}

func mustMkdir(t *testing.T, tr *Tree, p string) {
	t.Helper()
	if _, err := tr.Mkdir(p); err != nil {
		t.Fatal(err)
	}
}

// TestZeroContentStaysShared: content that is only zeros (ACE's dependency
// model writes nothing else) stays one flat view of the one zero page
// through writes, fallocate and truncate, without copying, and matches what
// a plain copying implementation holds. Real bytes get a copy of the pages
// they land in, the other pages staying zero views; a result past the zero
// page is paged, every page a zero view, at the cost of its page table.
func TestZeroContentStaysShared(t *testing.T) {
	const fill = 16 << 10 // ACE's dependency fill (ace.DepFileSize)
	type op struct {
		name string
		run  func(tr *Tree) error
		ref  func(ref []byte) []byte // the same op on a plain copy
	}
	// grown is ref copied into a zeroed slice of length size.
	grown := func(ref []byte, size int64) []byte {
		out := make([]byte, size)
		copy(out, ref[:min(size, int64(len(ref)))])
		return out
	}
	write := func(off, n int64) op {
		return op{fmt.Sprintf("write %d+%d", off, n),
			func(tr *Tree) error { _, err := tr.Write("/f", off, Zeros(n)); return err },
			func(ref []byte) []byte { return grown(ref, max(off+n, int64(len(ref)))) }}
	}
	falloc := func(mode filesys.FallocMode, off, n int64) op {
		return op{fmt.Sprintf("falloc %d %d+%d", mode, off, n),
			func(tr *Tree) error { _, err := tr.Falloc("/f", mode, off, n); return err },
			func(ref []byte) []byte {
				if mode == filesys.FallocDefault || mode == filesys.FallocZeroRange {
					return grown(ref, max(off+n, int64(len(ref))))
				}
				return grown(ref, int64(len(ref)))
			}}
	}
	truncate := func(size int64) op {
		return op{fmt.Sprintf("truncate %d", size),
			func(tr *Tree) error { _, err := tr.Truncate("/f", size); return err },
			func(ref []byte) []byte { return grown(ref, size) }}
	}
	ops := []op{
		write(0, 4096), write(8192, 4096), write(fill-4096, 4096), write(fill, 4096),
		truncate(0), truncate(4096), truncate(fill + 8192),
	}
	for _, mode := range []filesys.FallocMode{filesys.FallocDefault, filesys.FallocKeepSize,
		filesys.FallocPunchHole, filesys.FallocZeroRange, filesys.FallocZeroRangeKeepSize} {
		ops = append(ops, falloc(mode, 8192, 4096), falloc(mode, fill-4096, 8192))
	}
	for _, first := range ops {
		for _, second := range ops {
			tr := New()
			n, err := tr.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			ref := []byte{}
			for _, o := range []op{write(0, fill), first, second} {
				if err := o.run(tr); err != nil {
					t.Fatalf("%s, %s: %s: %v", first.name, second.name, o.name, err)
				}
				ref = o.ref(ref)
				if !bytes.Equal(n.Data.Bytes(), ref) {
					t.Fatalf("%s, %s: after %s, Data has %d bytes, want the %d zeros of the reference",
						first.name, second.name, o.name, n.Data.Len(), len(ref))
				}
				if !n.Data.isZero() {
					t.Fatalf("%s, %s: after %s, Data is a copy, not a zero-page view", first.name, second.name, o.name)
				}
			}
		}
	}

	n := &Node{Kind: filesys.KindRegular}
	if allocs := testing.AllocsPerRun(100, func() {
		n.WriteAt(0, Zeros(fill))
		n.WriteAt(4096, Zeros(4096)) // overwrite in the middle
		n.WriteAt(fill+100, Zeros(10))
		n.Resize(4096)
		n.Resize(fill + 8192)
	}); allocs != 0 {
		t.Errorf("zero-only writes and resizes allocate %v times, want 0", allocs)
	}

	// zeroPages lists which pages of c are zero views.
	zeroPages := func(c Content) []bool {
		var out []bool
		for i := range c.numPages() {
			out = append(out, isZeroView(c.page(i)))
		}
		return out
	}
	// Real bytes over a zero view: a copy of the page they land in, and the
	// zero page and the other pages stay zero.
	n.Data = Flat(Zeros(fill))
	n.WriteAt(100, []byte{1, 2, 3})
	want := []bool{false, true, true, true}
	if d := n.Data.Bytes(); n.Data.isZero() || len(d) != fill || !bytes.Equal(d[99:104], []byte{0, 1, 2, 3, 0}) ||
		fmt.Sprint(zeroPages(n.Data)) != fmt.Sprint(want) {
		t.Errorf("real bytes over a zero view: zero view %v, %d bytes, %v around the write, zero pages %v, want %v",
			n.Data.isZero(), len(d), d[99:104], zeroPages(n.Data), want)
	}
	// Zeros over real bytes: a copy with the bytes around them kept.
	n.WriteAt(101, Zeros(1))
	if d := n.Data.Bytes(); n.Data.isZero() || !bytes.Equal(d[99:104], []byte{0, 1, 0, 3, 0}) ||
		fmt.Sprint(zeroPages(n.Data)) != fmt.Sprint(want) {
		t.Errorf("zeros over real bytes: zero view %v, %v around the write, zero pages %v, want %v",
			n.Data.isZero(), d[99:104], zeroPages(n.Data), want)
	}
	if !bytes.Equal(zeroPage[:], make([]byte, len(zeroPage))) {
		t.Fatal("the zero page was written")
	}

	// A result past the zero page allocates its page table and nothing
	// else, and every page is a zero view.
	page := int64(len(zeroPage))
	for name, grow := range map[string]func(n *Node){
		"write":  func(n *Node) { n.WriteAt(page, Zeros(10)) },
		"resize": func(n *Node) { n.Resize(page + 10) },
		"falloc": func(n *Node) { n.zero(0, page+10) },
	} {
		n := &Node{Kind: filesys.KindRegular, Data: Flat(Zeros(page))}
		if allocs := testing.AllocsPerRun(10, func() { n.Data = Flat(Zeros(page)); grow(n) }); allocs != 1 {
			t.Errorf("%s past the zero page allocates %v times, want once, for the page table", name, allocs)
		}
		if n.Data.isZero() || !bytes.Equal(n.Data.Bytes(), make([]byte, page+10)) || slices.Contains(zeroPages(n.Data), false) {
			t.Errorf("%s past the zero page: flat zero view %v, %d bytes, zero pages %v; want %d zeros, every page a zero view",
				name, n.Data.isZero(), n.Data.Len(), zeroPages(n.Data), page+10)
		}
	}
}

// TestSweepUnreachable drops, and reports, the entries naming no inode and
// the inodes the root does not reach, a whole orphaned subtree included,
// and leaves the rest, hard links and reachable directories alike.
func TestSweepUnreachable(t *testing.T) {
	tr := New()
	for _, d := range []string{"/A", "/A/B", "/O", "/O/P"} {
		if _, err := tr.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/A/f", "/A/B/gone", "/O/P/q", "/A/B/dup"} {
		if _, err := tr.Create(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Link("/A/f", "/A/B/g"); err != nil {
		t.Fatal(err)
	}
	gone, _ := tr.Lookup("/A/B/gone")
	tr.RemoveNode(gone.Ino)
	o, _ := tr.Lookup("/O")
	p, _ := tr.Lookup("/O/P")
	q, _ := tr.Lookup("/O/P/q")
	delete(tr.Root().Children, "O")
	b, _ := tr.Lookup("/A/B")

	var entries []string
	var nodes []uint64
	tr.SweepUnreachable(func(dir uint64, name string) {
		entries = append(entries, fmt.Sprintf("%d/%s", dir, name))
	}, func(ino uint64) { nodes = append(nodes, ino) })

	if want := []string{fmt.Sprintf("%d/gone", b.Ino)}; fmt.Sprint(entries) != fmt.Sprint(want) {
		t.Errorf("dropped entries %v, want %v", entries, want)
	}
	slices.Sort(nodes)
	if want := []uint64{o.Ino, p.Ino, q.Ino}; !slices.Equal(nodes, want) {
		t.Errorf("dropped inodes %v, want %v", nodes, want)
	}
	for _, path := range []string{"/A", "/A/B", "/A/f", "/A/B/g", "/A/B/dup"} {
		if !tr.Exists(path) {
			t.Errorf("%s swept", path)
		}
	}
	if tr.Exists("/A/B/gone") || tr.NodeCount() != 5 {
		t.Errorf("after sweep: /A/B/gone resolves %v, %d inodes, want 5", tr.Exists("/A/B/gone"), tr.NodeCount())
	}
	tr.SweepUnreachable(nil, nil) // nothing left to drop, nothing to report
	if tr.NodeCount() != 5 {
		t.Errorf("second sweep left %d inodes, want 5", tr.NodeCount())
	}
}
