// Package f2fsim implements the F2FS-like file system under test: a
// log-structured design with periodic checkpoints plus per-fsync node
// writes, recovered by roll-forward scanning (F2FS's fsync/recovery
// shortcut). It carries the four F2FS bug mechanisms from the paper: the
// rename/recreate file loss (appendix workload 1), the fdatasync-after-
// fallocate KEEP_SIZE block loss (workload 2), the zero_range KEEP_SIZE
// size recovery bug (Table 5 #9), and the renamed-directory child
// recovering into the old directory (Table 5 #10).
package f2fsim

import (
	"fmt"
	"maps"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

var format = diskfmt.Format{
	Name:   "f2fsim",
	Super:  0x46324653, // "F2FS"
	Image:  0x43504B54, // "CPKT"
	Record: 0x4E4F4445, // "NODE"
}

// Options configures an f2fsim instance.
type Options = diskfmt.Options

// FS is the f2fsim file-system type.
type FS struct{ diskfmt.Backend }

// New returns an f2fsim simulating the given kernel era.
func New(opts Options) *FS { return &FS{diskfmt.NewBackend(format.Name, opts)} }

// Guarantees implements filesys.FileSystem: F2FS recovers fsynced files at
// their current name via roll-forward, and directory fsync forces a
// checkpoint; fsync_mode=strict also persists the renames of a file's
// ancestors.
func (f *FS) Guarantees() filesys.Guarantees {
	return filesys.Guarantees{
		FsyncFilePersistsAncestorRenames: true,
		FdatasyncPersistsDentry:          true,
	}
}

// fsyncEntry is one recovered unit in a node-log record: an inode image,
// the directory references it should be linked at, and the stale references
// roll-forward must remove (names the inode was renamed away from).
type fsyncEntry struct {
	node *fstree.Node
	refs []refRec
	dels []refRec
}

type refRec struct {
	parent uint64
	name   string
}

func encodeRecord(e *codec.Encoder, entries []fsyncEntry) {
	e.Int(len(entries))
	for _, ent := range entries {
		fstree.EncodeNode(e, ent.node, false)
		e.Int(len(ent.refs))
		for _, r := range ent.refs {
			e.Uint64(r.parent)
			e.String(r.name)
		}
		e.Int(len(ent.dels))
		for _, r := range ent.dels {
			e.Uint64(r.parent)
			e.String(r.name)
		}
	}
}

func decodeRecord(d *codec.Decoder) (entries []fsyncEntry, err error) {
	n := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > 1<<16 {
		return nil, fmt.Errorf("f2fsim: implausible record: %w", filesys.ErrCorrupted)
	}
	for i := 0; i < n; i++ {
		node, err := fstree.DecodeNode(d)
		if err != nil {
			return nil, err
		}
		ent := fsyncEntry{node: node}
		nr := d.Int()
		if d.Err() != nil || nr < 0 || nr > 1<<16 {
			return nil, fmt.Errorf("f2fsim: implausible refs: %w", filesys.ErrCorrupted)
		}
		for j := 0; j < nr; j++ {
			ent.refs = append(ent.refs, refRec{parent: d.Uint64(), name: d.String()})
		}
		nd := d.Int()
		if d.Err() != nil || nd < 0 || nd > 1<<16 {
			return nil, fmt.Errorf("f2fsim: implausible dels: %w", filesys.ErrCorrupted)
		}
		for j := 0; j < nd; j++ {
			ent.dels = append(ent.dels, refRec{parent: d.Uint64(), name: d.String()})
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		entries = append(entries, ent)
	}
	return entries, nil
}

// Mkfs implements filesys.FileSystem.
func (f *FS) Mkfs(dev blockdev.Device) error { return format.Mkfs(dev, nil) }

// Mount implements filesys.FileSystem: load the checkpoint and roll the
// fsync node chain forward.
func (f *FS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	gen, tree, _, err := format.LoadImage(dev)
	if err != nil {
		return nil, err
	}
	recovered := format.ScanLog(dev, gen, func(d *codec.Decoder) error {
		entries, err := decodeRecord(d)
		if err == nil {
			rollForward(tree, entries)
		}
		return err
	})
	if recovered > 0 {
		tree.SweepUnreachable(nil, nil)
		diskfmt.RecountLinks(tree)
	}

	m := &mounted{fs: f}
	m.Mounted = diskfmt.NewMounted(format, dev, gen, tree, m)
	m.captureCommitted()
	if recovered > 0 {
		// Recovery finishes with a checkpoint.
		if err := m.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fsck implements filesys.FileSystem (fsck.f2fs analogue): mount-equivalent
// recovery plus a clean checkpoint.
func (f *FS) Fsck(dev blockdev.Device) (bool, error) { return diskfmt.FsckByMount(f, dev) }

// rollForward applies one fsync record: materialize each node and link it
// at its recorded references.
func rollForward(tree *fstree.Tree, entries []fsyncEntry) {
	for _, ent := range entries {
		n := ent.node
		existing := tree.Get(n.Ino)
		if existing == nil {
			fresh := n.Clone()
			if fresh.Kind == filesys.KindDir && fresh.Children == nil {
				fresh.Children = make(map[string]uint64)
			}
			tree.AddOrphan(fresh, true)
		} else {
			existing.Nlink = n.Nlink
			existing.Target = n.Target
			existing.Extents = n.Extents
			if existing.Kind != filesys.KindDir {
				existing.Data = n.Data
			}
			if len(n.Xattrs) == 0 {
				existing.Xattrs = nil
			} else {
				existing.Xattrs = maps.Clone(n.Xattrs)
			}
		}
		for _, r := range ent.dels {
			dir := tree.Get(r.parent)
			if dir == nil || dir.Kind != filesys.KindDir {
				continue
			}
			if dir.Children[r.name] == n.Ino {
				delete(dir.Children, r.name)
			}
		}
		for _, r := range ent.refs {
			dir := tree.Get(r.parent)
			if dir == nil || dir.Kind != filesys.KindDir {
				continue // parent not recoverable; entry dropped
			}
			dir.Children[r.name] = n.Ino
		}
	}
}
