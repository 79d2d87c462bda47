package fstree

import (
	"testing"

	"b3/internal/codec"
	"b3/internal/filesys"
)

// richTreeImage encodes a tree with directories, a hard link, a symlink, a
// fifo, xattrs and extents: every field SkipTree must step over.
func richTreeImage(tb testing.TB) []byte {
	tb.Helper()
	tr := New()
	must := func(_ *Node, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(tr.Mkdir("/A"))
	must(tr.Mkdir("/A/B"))
	must(tr.Create("/A/foo"))
	must(tr.Write("/A/foo", 0, []byte("some file data")))
	must(tr.Falloc("/A/foo", filesys.FallocKeepSize, 8192, 4096))
	must(tr.SetXattr("/A/foo", "user.a", []byte("1")))
	must(tr.SetXattr("/A/foo", "user.b", []byte("22")))
	must(tr.SetXattr("/A", "user.dir", []byte("d")))
	must(tr.Link("/A/foo", "/A/B/bar"))
	must(tr.Symlink("/A/foo", "/ln"))
	must(tr.Mkfifo("/fifo"))
	e := codec.NewEncoder(0)
	tr.Encode(e)
	return e.Bytes()
}

// skipSeed is one input FuzzSkipTree starts from and whether DecodeTree
// accepts it.
type skipSeed struct {
	name string
	in   []byte
	ok   bool
}

// skipTreeSeeds are FuzzSkipTree's seeds; testdata/fuzz/FuzzSkipTree holds
// each as seed-<name>.
func skipTreeSeeds(tb testing.TB) []skipSeed {
	tb.Helper()
	valid := richTreeImage(tb)
	image := func(nodes ...*Node) []byte {
		e := codec.NewEncoder(0)
		e.Uint64(RootIno + 1)
		e.Int(len(nodes))
		for _, n := range nodes {
			EncodeNode(e, n, true)
		}
		return e.Bytes()
	}
	// counts encodes one root directory whose extent, xattr and child
	// counts are given, with no entries behind them.
	counts := func(ne, nx, nc int) []byte {
		e := codec.NewEncoder(0)
		e.Uint64(RootIno + 1)
		e.Int(1)
		e.Uint64(RootIno)
		e.Byte(byte(filesys.KindDir))
		e.Int(2)
		e.Bytes64(nil)
		e.String("")
		e.Int(ne)
		if ne == 0 {
			e.Int(nx)
			if nx == 0 {
				e.Int(nc)
			}
		}
		return e.Bytes()
	}
	nodeCount := codec.NewEncoder(0)
	nodeCount.Uint64(RootIno + 1)
	nodeCount.Int(1<<24 + 1)
	root := &Node{Ino: RootIno, Kind: filesys.KindDir, Nlink: 2, Children: map[string]uint64{}}
	file := &Node{Ino: RootIno, Kind: filesys.KindRegular, Nlink: 1, Data: Flat([]byte("x"))}
	return []skipSeed{
		{"valid-multi-node", valid, true},
		{"truncated", valid[:len(valid)/2], false},
		{"implausible-node-count", nodeCount.Bytes(), false},
		{"implausible-extent-count", counts(1<<20+1, 0, 0), false},
		{"implausible-xattr-count", counts(0, -1, 0), false},
		{"implausible-child-count", counts(0, 0, 1<<24+1), false},
		{"missing-root", image(&Node{Ino: 2, Kind: filesys.KindDir, Nlink: 2}), false},
		{"duplicate-root-last-not-dir", image(root, file), false},
		{"duplicate-root-last-dir", image(file, root), true},
	}
}

// TestSkipTreeSeeds: on every seed SkipTree and DecodeTree agree, and both
// match the seed's expected verdict.
func TestSkipTreeSeeds(t *testing.T) {
	for _, s := range skipTreeSeeds(t) {
		_, err := DecodeTree(codec.NewDecoder(s.in))
		if (err == nil) != s.ok {
			t.Errorf("%s: DecodeTree error %v, want ok=%v", s.name, err, s.ok)
		}
		checkSkipMatchesDecode(t, s.in)
	}
}

// checkSkipMatchesDecode fails t unless SkipTree and DecodeTree return the
// same error (or none) and leave their decoders at the same offset.
func checkSkipMatchesDecode(t *testing.T, in []byte) {
	t.Helper()
	built, skipped := codec.NewDecoder(in), codec.NewDecoder(in)
	_, errDecode := DecodeTree(built)
	errSkip := SkipTree(skipped)
	if (errDecode == nil) != (errSkip == nil) ||
		(errDecode != nil && errDecode.Error() != errSkip.Error()) {
		t.Fatalf("input %x: DecodeTree error %v, SkipTree error %v", in, errDecode, errSkip)
	}
	if built.Remaining() != skipped.Remaining() {
		t.Fatalf("input %x: DecodeTree leaves %d bytes, SkipTree %d", in, built.Remaining(), skipped.Remaining())
	}
}

// FuzzSkipTree: SkipTree accepts exactly what DecodeTree accepts and stops
// at the same offset, so a full image it passed decodes later without fail.
// Its seeds are skipTreeSeeds, committed under testdata/fuzz/FuzzSkipTree.
func FuzzSkipTree(f *testing.F) {
	f.Fuzz(checkSkipMatchesDecode)
}

// TestSkipTreeAllocatesNothing: checking an image builds no node, map,
// slice or string.
func TestSkipTreeAllocatesNothing(t *testing.T) {
	payload := richTreeImage(t)
	var d codec.Decoder
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset(payload)
		if err := SkipTree(&d); err != nil || d.Remaining() != 0 {
			t.Fatalf("SkipTree: %v, %d bytes left", err, d.Remaining())
		}
	})
	if allocs != 0 {
		t.Fatalf("SkipTree allocates %v times per image, want 0", allocs)
	}
}
