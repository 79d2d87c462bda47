package logfs

import (
	"bytes"
	"testing"
	_ "unsafe" // go:linkname

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/fstree"
)

// clearVerified is diskfmt's test hook (diskfmt.go): it empties the
// process-wide verified-payload memo, decoded images included.
//
//go:linkname clearVerified b3/internal/fs/diskfmt.clearVerified
func clearVerified()

func encodeTree(tr *fstree.Tree) []byte {
	e := codec.NewEncoder(0)
	tr.Encode(e)
	return bytes.Clone(e.Bytes())
}

// TestFsckLeavesSharedImage: Fsck repairs the link counts of a committed
// image that stores wrong ones, and must do so on its own copy of the
// tree, never on the one the memo shares with every mount of the same
// image. The image stays on the original device, so a warm remount of it
// (served from the memo) must equal a cold one (decoded afresh), both
// with the stored counts.
func TestFsckLeavesSharedImage(t *testing.T) {
	fs := fixed()
	dev := blockdev.NewMemDisk(8192)
	if err := fs.Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	m, err := fs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		m.Mkdir("/A"), m.Mkdir("/A/B"), m.Create("/A/f"), m.Link("/A/f", "/g"), m.Mkfifo("/p"),
		m.Unmount(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Store every link count off by three.
	gen, img, err := loadCommit(dev)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeTree(img.tree)
	bad := img.tree.Clone()
	for _, ino := range bad.Inos() {
		bad.Edit(ino).Nlink += 3
	}
	if err := format.WriteImage(dev, gen+1, bad, func(e *codec.Encoder) { encodeEntryBytes(e, img.entryBytes) }); err != nil {
		t.Fatal(err)
	}
	stored := encodeTree(bad)

	clearVerified()
	_, shared, _, err := format.LoadImage(dev)
	if err != nil {
		t.Fatal(err)
	}
	crash := blockdev.NewSnapshot(dev)
	if ok, err := fs.Fsck(crash); !ok || err != nil {
		t.Fatalf("fsck: %v %v", ok, err)
	}
	_, repaired, _, err := format.LoadImage(crash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTree(repaired), good) {
		t.Fatal("fsck did not restore the link counts")
	}
	if !bytes.Equal(encodeTree(shared), stored) {
		t.Fatal("fsck wrote the tree the memo shares")
	}

	mountedTree := func() []byte {
		t.Helper()
		m, err := fs.Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		return encodeTree(m.(*mounted).Mem)
	}
	warm := mountedTree()
	clearVerified()
	if cold := mountedTree(); !bytes.Equal(warm, cold) || !bytes.Equal(cold, stored) {
		t.Fatal("a warm remount after fsck differs from a cold one")
	}
}
