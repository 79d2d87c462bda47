package fstree

import (
	"bytes"
	"testing"

	"b3/internal/codec"
	"b3/internal/filesys"
)

// richTreeImage encodes a tree with directories, a hard link, a symlink, a
// fifo, xattrs and extents: every field DecodeTree reads.
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

// decodeSeed is one input FuzzDecodeTree starts from and whether DecodeTree
// accepts it.
type decodeSeed struct {
	name string
	in   []byte
	ok   bool
}

// decodeTreeSeeds are FuzzDecodeTree's seeds; testdata/fuzz/FuzzDecodeTree
// holds each as seed-<name>. The two duplicate-root seeds pin that the last
// node with the root's number is the root.
func decodeTreeSeeds(tb testing.TB) []decodeSeed {
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
	return []decodeSeed{
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

// TestDecodeTreeSeeds: DecodeTree gives every seed its expected verdict,
// and what it accepts re-encodes stably.
func TestDecodeTreeSeeds(t *testing.T) {
	for _, s := range decodeTreeSeeds(t) {
		if err := checkDecodeTree(t, s.in); (err == nil) != s.ok {
			t.Errorf("%s: DecodeTree error %v, want ok=%v", s.name, err, s.ok)
		}
	}
}

// checkDecodeTree decodes in and returns DecodeTree's error. For an input it
// accepts, it fails t unless the decoded tree's encoding decodes back to a
// tree that encodes to the same bytes.
func checkDecodeTree(t *testing.T, in []byte) error {
	t.Helper()
	tr, err := DecodeTree(codec.NewDecoder(in))
	if err != nil {
		return err
	}
	enc := encodeTree(tr)
	again, err := DecodeTree(codec.NewDecoder(enc))
	if err != nil {
		t.Fatalf("input %x: the decoded tree's encoding does not decode: %v", in, err)
	}
	if !bytes.Equal(encodeTree(again), enc) {
		t.Fatalf("input %x: the decoded tree's encoding does not round-trip", in)
	}
	return nil
}

func encodeTree(tr *Tree) []byte {
	e := codec.NewEncoder(0)
	tr.Encode(e)
	return e.Bytes()
}

// FuzzDecodeTree: DecodeTree never panics, and a tree it accepts re-encodes
// stably. Its seeds are decodeTreeSeeds, committed under
// testdata/fuzz/FuzzDecodeTree.
func FuzzDecodeTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) { checkDecodeTree(t, in) })
}
