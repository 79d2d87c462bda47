// Package journalfs implements the ext4-like file system under test:
// ordered-mode metadata journaling. A transaction commit (triggered by
// fsync, fdatasync, or sync) first flushes dirty data, then journals all
// pending metadata — the global-journal "dragging" effect that makes ext4
// hard to catch out (the paper found no new ext4 bugs; the two studied ones
// are in the fdatasync fast path and the direct-IO size path, both modelled
// here).
package journalfs

import (
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

var format = diskfmt.Format{
	Name:   "journalfs",
	Super:  0x4A524E4C, // "JRNL"
	Image:  0x494D4147, // "IMAG"
	Record: 0x54584E52, // "TXNR"
}

const (
	recFullImage      = diskfmt.RecFullImage // full metadata+data image (ordered commit)
	recDirect    byte = iota                 // direct-IO write patch
)

// Options configures a journalfs instance.
type Options = diskfmt.Options

// FS is the journalfs file-system type.
type FS struct{ diskfmt.Backend }

// New returns a journalfs simulating the given kernel era.
func New(opts Options) *FS { return &FS{diskfmt.NewBackend(format.Name, opts)} }

// Guarantees implements filesys.FileSystem. ext4's global journal persists
// all pending metadata at every commit, so it makes both optional promises.
func (f *FS) Guarantees() filesys.Guarantees {
	return filesys.Guarantees{
		FsyncFilePersistsAncestorRenames: true,
		FdatasyncPersistsDentry:          true,
	}
}

// Mkfs implements filesys.FileSystem.
func (f *FS) Mkfs(dev blockdev.Device) error { return format.Mkfs(dev, nil) }

// journalRecord is one committed transaction in the journal area.
type journalRecord struct {
	kind byte
	// recFullImage:
	tree *fstree.Tree
	// recDirect:
	ino  uint64
	off  int64
	data []byte
	size int64
}

func encodeRecord(e *codec.Encoder, r journalRecord) {
	e.Byte(r.kind)
	switch r.kind {
	case recFullImage:
		r.tree.Encode(e)
	case recDirect:
		e.Uint64(r.ino)
		e.Int64(r.off)
		e.Bytes64(r.data)
		e.Int64(r.size)
	}
}

// decodeDirect reads the body of a patch record of the given kind.
func decodeDirect(kind byte, d *codec.Decoder) (r journalRecord, err error) {
	if kind != recDirect {
		return r, fmt.Errorf("journalfs: unknown record kind %d: %w", kind, filesys.ErrCorrupted)
	}
	r.ino = d.Uint64()
	r.off = d.Int64()
	r.data = d.Bytes64View()
	r.size = d.Int64()
	return r, d.Err()
}

// Mount implements filesys.FileSystem: load the checkpoint image and replay
// committed journal transactions.
func (f *FS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	gen, tree, replayed, err := diskfmt.ReplayImages(format, dev, decodeDirect, applyDirect)
	if err != nil {
		return nil, err
	}

	m := &mounted{fs: f, dirty: map[uint64]*dirtyState{}}
	m.Mounted = diskfmt.NewMounted(format, dev, gen, tree, m)
	m.captureDurableSizes()
	if replayed > 0 {
		// Recovery finishes with a checkpoint, like jbd2 after replay.
		if err := m.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fsck implements filesys.FileSystem: e2fsck-style — recovery already
// replays the journal, so fsck only rewrites a clean checkpoint.
func (f *FS) Fsck(dev blockdev.Device) (bool, error) { return diskfmt.FsckByMount(f, dev) }

// applyDirect patches a direct-IO write into the image: data and block
// allocation land, and the size is set from the journaled i_disksize.
func applyDirect(tree *fstree.Tree, rec journalRecord) {
	paths := tree.PathsOf(rec.ino)
	if len(paths) == 0 {
		return // file was never durable; nothing to attach the write to
	}
	n := tree.Get(rec.ino)
	if n == nil || n.Kind != filesys.KindRegular {
		return
	}
	n.WriteAt(rec.off, rec.data)
	n.AllocRange(rec.off, rec.off+int64(len(rec.data)))
	// i_disksize from the record rules the recovered size.
	n.Resize(rec.size)
}
