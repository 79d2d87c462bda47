package fstree

import (
	"bytes"
	"errors"
	"fmt"
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
	if string(n.Data) != "shared" {
		t.Fatalf("hard link does not share data: %q", n.Data)
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
	if string(n.Data) != "new" {
		t.Fatalf("bar content = %q", n.Data)
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
	if string(n.Data[100:103]) != "mid" {
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
	for _, b := range n.Data[4096:] {
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
	for _, b := range n.Data[4096:12288] {
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
	for _, b := range n.Data[100:300] {
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
	if n.Data[0] != 0 || n.Data[999] != 0 || n.Data[1000] != 9 {
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
	if err != nil || string(cn.Data) != "orig" {
		t.Fatalf("clone shares data: %q %v", cn.Data, err)
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
	{"writeat", func(tr *Tree) error { n, err := tr.Lookup("/f"); n.WriteAt(3, []byte("xyz")); return err }},
	{"resize-shrink", func(tr *Tree) error {
		n, err := tr.Lookup("/f")
		if n.Resize(7); cap(n.Data) != len(n.Data) {
			return errors.New("shrunk Data keeps spare capacity: an append would write into shared bytes")
		}
		return err
	}},
	{"resize-grow", func(tr *Tree) error { n, err := tr.Lookup("/f"); n.Resize(9000); return err }},
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

// nodeContent is a deep copy of a node's shared content.
type nodeContent struct {
	data    []byte
	extents []filesys.Extent
	xattr   []byte
}

func (c nodeContent) equal(o nodeContent) bool {
	return bytes.Equal(c.data, o.data) && bytes.Equal(c.xattr, o.xattr) &&
		fmt.Sprint(c.extents) == fmt.Sprint(o.extents)
}

func contentOf(t *testing.T, tr *Tree) (deep, shared nodeContent) {
	t.Helper()
	n, err := tr.Lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	shared = nodeContent{n.Data, n.Extents, n.Xattrs["user.a"]}
	deep = nodeContent{bytes.Clone(n.Data), append([]filesys.Extent(nil), n.Extents...), bytes.Clone(n.Xattrs["user.a"])}
	return deep, shared
}

// TestCloneSharesContentCopyOnWrite pins the copy-on-write contract that
// lets clones share Data, Extents and xattr values: mutating either side
// leaves the other side, and every slice read before the mutation,
// byte-identical.
func TestCloneSharesContentCopyOnWrite(t *testing.T) {
	for _, m := range contentMutations {
		for _, mutateClone := range []bool{false, true} {
			orig := contentTree(t)
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
				t.Errorf("%s (mutate clone %v): a slice read before the mutation changed", m.name, mutateClone)
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
	if err != nil || string(n.Data) != "data" || n.Nlink != 2 {
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
