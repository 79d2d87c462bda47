// Package fscqsim implements the FSCQ-like verified file system under test:
// a synchronous operation log whose flush (fsync or sync) makes every
// preceding operation durable — the behaviour FSCQ's crash Hoare logic
// proves correct. The one bug it carries is the paper's Table 5 #11: a
// data-loss bug introduced by the *unverified* C-Haskell binding's
// logged-writes optimization, where fdatasync flushes data blocks directly
// but forgets the pending size update sitting in the log (appendix 9.2,
// workload 11).
package fscqsim

import (
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

var format = diskfmt.Format{
	Name:   "fscqsim",
	Super:  0x46534351, // "FSCQ"
	Image:  0x4C4F4749, // "LOGI"
	Record: 0x44505754, // "DPWT"
}

const (
	recFullImage      = diskfmt.RecFullImage
	recDataPatch byte = iota
)

// Options configures an fscqsim instance.
type Options = diskfmt.Options

// FS is the fscqsim file-system type.
type FS struct{ diskfmt.Backend }

// New returns an fscqsim instance.
func New(opts Options) *FS { return &FS{diskfmt.NewBackend(format.Name, opts)} }

// Guarantees implements filesys.FileSystem: FSCQ's specification makes
// every flush persist all preceding operations, but fdatasync is specified
// to persist only data and size, not a new file's name.
func (f *FS) Guarantees() filesys.Guarantees {
	return filesys.Guarantees{FsyncFilePersistsAncestorRenames: true}
}

type logRecord struct {
	kind byte
	tree *fstree.Tree // recFullImage
	ino  uint64       // recDataPatch
	data []byte
	size int64
	ext  []filesys.Extent
}

func encodeRecord(e *codec.Encoder, r logRecord) {
	e.Byte(r.kind)
	switch r.kind {
	case recFullImage:
		r.tree.Encode(e)
	case recDataPatch:
		e.Uint64(r.ino)
		e.Bytes64(r.data)
		e.Int64(r.size)
		e.Int(len(r.ext))
		for _, x := range r.ext {
			e.Int64(x.Off)
			e.Int64(x.Len)
		}
	}
}

// decodePatch reads the body of a patch record of the given kind.
func decodePatch(kind byte, d *codec.Decoder) (r logRecord, err error) {
	if kind != recDataPatch {
		return r, fmt.Errorf("fscqsim: unknown record kind: %w", filesys.ErrCorrupted)
	}
	r.ino = d.Uint64()
	r.data = d.Bytes64View()
	r.size = d.Int64()
	n := d.Int()
	if d.Err() != nil || n < 0 || n > 1<<20 {
		return r, fmt.Errorf("fscqsim: implausible extents: %w", filesys.ErrCorrupted)
	}
	for i := 0; i < n; i++ {
		r.ext = append(r.ext, filesys.Extent{Off: d.Int64(), Len: d.Int64()})
	}
	return r, d.Err()
}

// Mkfs implements filesys.FileSystem.
func (f *FS) Mkfs(dev blockdev.Device) error { return format.Mkfs(dev, nil) }

// Mount implements filesys.FileSystem.
func (f *FS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	gen, tree, recovered, err := diskfmt.ReplayImages(format, dev, decodePatch, applyPatch)
	if err != nil {
		return nil, err
	}

	m := &mounted{fs: f}
	m.Mounted = diskfmt.NewMounted(format, dev, gen, tree, m)
	m.captureDurable()
	if recovered > 0 {
		if err := m.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fsck implements filesys.FileSystem (FSCQ needs none; recovery is total).
func (f *FS) Fsck(dev blockdev.Device) (bool, error) { return diskfmt.FsckByMount(f, dev) }

// applyPatch lands fdatasync'ed data, then truncates to the recorded size —
// the size is authoritative; a stale size is exactly the N11 data loss.
func applyPatch(tree *fstree.Tree, rec logRecord) {
	if len(tree.PathsOf(rec.ino)) == 0 {
		return // file not durable: nothing to patch
	}
	n := tree.Get(rec.ino)
	if n == nil || n.Kind != filesys.KindRegular {
		return
	}
	n.Data = rec.data
	n.Extents = rec.ext
	n.Resize(rec.size)
}
