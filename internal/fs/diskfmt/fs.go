package diskfmt

import (
	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/fstree"
)

// The diskfmt file system under test: the reference whole-image backend
// built directly on this package's primitives. Every persistence operation
// serializes the complete tree into the inactive image region and flips the
// dual-slot superblock, so each persistence point is a full checkpoint and
// recovery is a single image load — there is no log to replay and no bug
// mechanism to simulate. In the campaign matrix it is the soundness row:
// any finding against it is a harness false positive.

var fsFormat = Format{
	Name:  "diskfmt",
	Super: 0x44534B46, // "DSKF"
	Image: 0x44494D47, // "DIMG"
}

// FS is the diskfmt reference file system.
type FS struct{ Backend }

var _ filesys.FileSystem = (*FS)(nil)

// NewFS returns a diskfmt backend instance. The backend carries no bug
// mechanisms, so the options select nothing; they are accepted so fsmake
// constructs all backends uniformly.
func NewFS(opts Options) *FS { return &FS{NewBackend(fsFormat.Name, opts)} }

// Guarantees implements filesys.FileSystem: every persistence operation
// checkpoints the whole tree, so it makes both optional promises.
func (f *FS) Guarantees() filesys.Guarantees {
	return filesys.Guarantees{
		FsyncFilePersistsAncestorRenames: true,
		FdatasyncPersistsDentry:          true,
	}
}

// Mkfs implements filesys.FileSystem.
func (f *FS) Mkfs(dev blockdev.Device) error { return fsFormat.Mkfs(dev, nil) }

// Mount implements filesys.FileSystem: load the newest valid image. There
// is nothing further to recover; the in-memory tree is a clone of the
// shared loaded one.
func (f *FS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	gen, tree, _, err := fsFormat.LoadImage(dev)
	if err != nil {
		return nil, err
	}
	m := &fsMounted{}
	m.Mounted = NewMounted(fsFormat, dev, gen, tree.Clone(), m)
	return m, nil
}

// Fsck implements filesys.FileSystem.
func (f *FS) Fsck(dev blockdev.Device) (bool, error) { return FsckByMount(f, dev) }

// fsMounted is the reference strategy: no dirt tracking, and every
// persistence point is a whole-image checkpoint (the format has no cheaper
// data-only or ranged path, so fdatasync, msync and a direct write
// legitimately persist everything).
type fsMounted struct{ Mounted }

func (m *fsMounted) Touched(*fstree.Node, Change) {}

func (m *fsMounted) PersistNode(*fstree.Node) error { return m.Checkpoint() }

func (m *fsMounted) PersistData(*fstree.Node) error { return m.Checkpoint() }

func (m *fsMounted) PersistRange(*fstree.Node, int64, int64) error { return m.Checkpoint() }

func (m *fsMounted) PersistDirect(*fstree.Node, int64, []byte) error { return m.Checkpoint() }

func (m *fsMounted) Checkpoint() error { return m.WriteCheckpoint(nil) }
