package diskfmt

import (
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fstree"
)

// ChangeKind names the mutating MountedFS call a Strategy is told about.
type ChangeKind uint8

const (
	OpCreate ChangeKind = iota
	OpMkdir
	OpSymlink
	OpMkfifo
	OpLink
	OpUnlink
	OpRmdir
	OpRename
	OpTruncate
	OpWrite
	OpFalloc
	OpSetXattr
	OpRemoveXattr
)

// Change describes one applied mutation: what a strategy needs beyond the
// inode to keep its own accounting. It is passed by value so that
// notifying a Strategy never allocates.
type Change struct {
	Op ChangeKind
	// Path is the entry a namespace call named (the namespace kinds only):
	// the one a create, mkdir, symlink, mkfifo or link added, the one an
	// unlink or rmdir removed, a rename's source. Its parent path resolves
	// to the same directory after the call as before it.
	Path string
	// Dst is a rename's destination. Replaced is the inode the rename
	// replaced there; it is nil when the destination named nothing or
	// named the moved inode. OpRename only.
	Dst      string
	Replaced *fstree.Node
	// Falloc arguments (OpFalloc only).
	Mode        filesys.FallocMode
	Off, Length int64
}

// Strategy is what a backend adds to the mounted base: its dirt tracking
// and what it makes durable at each persistence point. Nodes are the live
// in-memory inodes of Mounted.Mem.
type Strategy interface {
	// Touched is called after a mutation was applied to the in-memory
	// tree; n is the inode it created, changed, moved or removed (an
	// unlinked inode whose last link went has Nlink 0).
	Touched(n *fstree.Node, c Change)
	// PersistNode serves fsync.
	PersistNode(n *fstree.Node) error
	// PersistData serves fdatasync.
	PersistData(n *fstree.Node) error
	// PersistRange serves msync.
	PersistRange(n *fstree.Node, off, length int64) error
	// PersistDirect serves a direct write, already applied in memory (no
	// Touched call is made for it).
	PersistDirect(n *fstree.Node, off int64, data []byte) error
	// Checkpoint serves sync and unmount: everything becomes durable.
	Checkpoint() error
}

// Mounted is the base every backend's mounted instance embeds. It owns the
// in-memory tree, the device with its generation and log cursor, and the
// unmounted flag, and implements all of filesys.MountedFS once:
// check mounted → tree operation → notify the Strategy. Every method —
// reads included — rejects a handle that was unmounted: a harness
// use-after-unmount must surface as an error, not silently serve the stale
// in-memory tree.
type Mounted struct {
	// Mem is the page cache: the current in-memory state.
	Mem *fstree.Tree

	format   Format
	dev      blockdev.Device
	strategy Strategy

	gen     uint64
	logHead int64
	logSeq  uint64

	unmounted bool
}

var _ filesys.MountedFS = (*Mounted)(nil)

// NewMounted returns the base for tree as loaded from generation gen of
// dev, with an empty log. tree becomes Mem, which every mutation writes, so
// it must be the caller's own: never a tree LoadImage shares.
func NewMounted(f Format, dev blockdev.Device, gen uint64, tree *fstree.Tree, s Strategy) Mounted {
	return Mounted{Mem: tree, format: f, dev: dev, strategy: s, gen: gen, logHead: logStart}
}

// CheckMounted rejects a handle that was unmounted.
func (m *Mounted) CheckMounted() error {
	if m.unmounted {
		return fmt.Errorf("%s: unmounted: %w", m.format.Name, filesys.ErrInvalid)
	}
	return nil
}

// WriteCheckpoint makes the whole in-memory tree (plus the backend's
// trailer, if any) durable as the next generation and empties the log. A
// failed checkpoint leaves generation and log cursor where they were, so
// the retry targets the same inactive region.
func (m *Mounted) WriteCheckpoint(trailer func(*codec.Encoder)) error {
	if err := m.format.WriteImage(m.dev, m.gen+1, m.Mem, trailer); err != nil {
		return err
	}
	m.gen++
	m.logHead = logStart
	m.logSeq = 0
	return nil
}

// AppendRecord frames body as the next record of the current generation,
// writes it at the log head and flushes.
func (m *Mounted) AppendRecord(body func(*codec.Encoder)) error {
	e := getEncoder()
	defer encoders.Put(e)
	e.Uint64(m.gen)
	e.Uint64(m.logSeq + 1)
	body(e)
	blocks, err := WriteBlob(m.dev, m.logHead, m.format.Record, e.Bytes())
	if err != nil {
		return err
	}
	if m.logHead+blocks >= m.dev.NumBlocks() {
		return fmt.Errorf("%s: log area exhausted: %w", m.format.Name, filesys.ErrInvalid)
	}
	if err := m.dev.Flush(); err != nil {
		return err
	}
	m.logSeq++
	m.logHead += blocks
	return nil
}

// notify reports an applied mutation to the strategy.
func (m *Mounted) notify(n *fstree.Node, err error, c Change) error {
	if err != nil {
		return err
	}
	m.strategy.Touched(n, c)
	return nil
}

// lookup resolves path on a mounted handle.
func (m *Mounted) lookup(path string) (*fstree.Node, error) {
	if err := m.CheckMounted(); err != nil {
		return nil, err
	}
	return m.Mem.Lookup(path)
}

// Create implements filesys.MountedFS.
func (m *Mounted) Create(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Create(path)
	return m.notify(n, err, Change{Op: OpCreate, Path: path})
}

// Mkdir implements filesys.MountedFS.
func (m *Mounted) Mkdir(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Mkdir(path)
	return m.notify(n, err, Change{Op: OpMkdir, Path: path})
}

// Symlink implements filesys.MountedFS.
func (m *Mounted) Symlink(target, linkPath string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Symlink(target, linkPath)
	return m.notify(n, err, Change{Op: OpSymlink, Path: linkPath})
}

// Mkfifo implements filesys.MountedFS.
func (m *Mounted) Mkfifo(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Mkfifo(path)
	return m.notify(n, err, Change{Op: OpMkfifo, Path: path})
}

// Link implements filesys.MountedFS.
func (m *Mounted) Link(oldPath, newPath string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Link(oldPath, newPath)
	return m.notify(n, err, Change{Op: OpLink, Path: newPath})
}

// Unlink implements filesys.MountedFS.
func (m *Mounted) Unlink(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, _, err := m.Mem.Unlink(path)
	return m.notify(n, err, Change{Op: OpUnlink, Path: path})
}

// Rmdir implements filesys.MountedFS.
func (m *Mounted) Rmdir(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Rmdir(path)
	return m.notify(n, err, Change{Op: OpRmdir, Path: path})
}

// Rename implements filesys.MountedFS; the strategy is told about the moved
// inode.
func (m *Mounted) Rename(src, dst string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, replaced, err := m.Mem.Rename(src, dst)
	return m.notify(n, err, Change{Op: OpRename, Path: src, Dst: dst, Replaced: replaced})
}

// Truncate implements filesys.MountedFS.
func (m *Mounted) Truncate(path string, size int64) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Truncate(path, size)
	return m.notify(n, err, Change{Op: OpTruncate})
}

// Write implements filesys.MountedFS: a buffered write lands in Mem only.
func (m *Mounted) Write(path string, off int64, data []byte) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Write(path, off, data)
	return m.notify(n, err, Change{Op: OpWrite})
}

// MWrite implements filesys.MountedFS: a store through mmap is page-cache
// only, like a buffered write.
func (m *Mounted) MWrite(path string, off int64, data []byte) error {
	return m.Write(path, off, data)
}

// WriteDirect implements filesys.MountedFS: the write lands in Mem and the
// strategy makes it durable at once.
func (m *Mounted) WriteDirect(path string, off int64, data []byte) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Write(path, off, data)
	if err != nil {
		return err
	}
	return m.strategy.PersistDirect(n, off, data)
}

// Falloc implements filesys.MountedFS.
func (m *Mounted) Falloc(path string, mode filesys.FallocMode, off, length int64) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Falloc(path, mode, off, length)
	return m.notify(n, err, Change{Op: OpFalloc, Mode: mode, Off: off, Length: length})
}

// SetXattr implements filesys.MountedFS.
func (m *Mounted) SetXattr(path, name string, value []byte) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.SetXattr(path, name, value)
	return m.notify(n, err, Change{Op: OpSetXattr})
}

// RemoveXattr implements filesys.MountedFS.
func (m *Mounted) RemoveXattr(path, name string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.RemoveXattr(path, name)
	return m.notify(n, err, Change{Op: OpRemoveXattr})
}

// Fsync implements filesys.MountedFS.
func (m *Mounted) Fsync(path string) error {
	n, err := m.lookup(path)
	if err != nil {
		return err
	}
	return m.strategy.PersistNode(n)
}

// Fdatasync implements filesys.MountedFS.
func (m *Mounted) Fdatasync(path string) error {
	n, err := m.lookup(path)
	if err != nil {
		return err
	}
	return m.strategy.PersistData(n)
}

// MSync implements filesys.MountedFS.
func (m *Mounted) MSync(path string, off, length int64) error {
	n, err := m.lookup(path)
	if err != nil {
		return err
	}
	return m.strategy.PersistRange(n, off, length)
}

// Sync implements filesys.MountedFS.
func (m *Mounted) Sync() error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	return m.strategy.Checkpoint()
}

// Unmount implements filesys.MountedFS: a clean unmount checkpoints.
func (m *Mounted) Unmount() error {
	if err := m.Sync(); err != nil {
		return err
	}
	m.unmounted = true
	return nil
}

// Stat implements filesys.MountedFS.
func (m *Mounted) Stat(path string) (filesys.Stat, error) {
	n, err := m.lookup(path)
	if err != nil {
		return filesys.Stat{}, err
	}
	return n.Stat(), nil
}

// ReadFile implements filesys.MountedFS: it returns the node's immutable
// content itself when it is flat, and gathers only paged content into a
// copy (fstree.Content.Bytes).
func (m *Mounted) ReadFile(path string) ([]byte, error) {
	c, err := m.ReadContent(path)
	return c.Bytes(), err
}

// ReadContent is ReadFile without the gather: the node's immutable content
// as it holds it, paged or flat, which must not be modified.
func (m *Mounted) ReadContent(path string) (fstree.Content, error) {
	n, err := m.lookup(path)
	if err != nil {
		return fstree.Content{}, err
	}
	if n.Kind == filesys.KindDir {
		return fstree.Content{}, fmt.Errorf("%s read %q: %w", m.format.Name, path, filesys.ErrIsDir)
	}
	return n.Data, nil
}

// ReadDir implements filesys.MountedFS.
func (m *Mounted) ReadDir(path string) ([]filesys.DirEntry, error) {
	if err := m.CheckMounted(); err != nil {
		return nil, err
	}
	return m.Mem.ReadDir(path)
}

// ReadLink implements filesys.MountedFS.
func (m *Mounted) ReadLink(path string) (string, error) {
	n, err := m.lookup(path)
	if err != nil {
		return "", err
	}
	if n.Kind != filesys.KindSymlink {
		return "", fmt.Errorf("%s readlink %q: %w", m.format.Name, path, filesys.ErrInvalid)
	}
	return n.Target, nil
}

// ListXattr implements filesys.MountedFS.
func (m *Mounted) ListXattr(path string) (map[string][]byte, error) {
	n, err := m.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(n.Xattrs))
	for k, v := range n.Xattrs {
		out[k] = append([]byte(nil), v...)
	}
	return out, nil
}

// Extents implements filesys.MountedFS.
func (m *Mounted) Extents(path string) ([]filesys.Extent, error) {
	n, err := m.lookup(path)
	if err != nil {
		return nil, err
	}
	return append([]filesys.Extent(nil), n.Extents...), nil
}
