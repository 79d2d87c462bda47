package logfs

import (
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// pathKey identifies a directory entry by parent inode and name.
type pathKey struct {
	parent uint64
	name   string
}

// punchRec records a punched byte range (for the overlapping-punch bug).
type punchRec struct {
	off, end int64
}

// inodeTrack is the per-inode bookkeeping between commits; it corresponds
// to the in-memory btrfs inode state (logged_trans, last_log_commit, ...)
// whose mishandling causes several of the studied bugs.
type inodeTrack struct {
	dirty              bool // content/metadata changed since last log/commit
	loggedInTrans      bool // inode written to the log this transaction
	newLinkSinceCommit bool
	punches            []punchRec
	origin             pathKey // name the inode was created with
	hasOrigin          bool
	renamedFrom        *pathKey // first pre-rename name this transaction
}

// mounted is a mounted logfs instance: the shared base plus the strategy of
// a copy-on-write tree with a per-fsync log. Namespace operations carry
// directory entry-byte accounting keyed by the parent, resolved before the
// tree changes, so they override the base's; everything else is the base's.
type mounted struct {
	diskfmt.Mounted
	fs *FS

	committed *fstree.Tree // state as of the last transaction commit
	eb        map[uint64]int64
	ebCommit  map[uint64]int64

	track          map[uint64]*inodeTrack
	loggedDentries map[pathKey]uint64 // dentry adds logged this transaction
	loggedNames    map[uint64]map[pathKey]bool
	loggedDels     map[pathKey]bool
	logState       map[pathKey]boundState // final per-name outcome of the log
	delsByUnlink   map[pathKey]uint64     // names unlinked since commit → old inode
}

// boundState is the log's final verdict on one directory entry.
type boundState struct {
	ino     uint64
	present bool
}

// durableBinding reports what the durable state (committed tree overridden
// by the log written so far) holds at key.
func (m *mounted) durableBinding(key pathKey) (uint64, bool) {
	if s, ok := m.logState[key]; ok {
		return s.ino, s.present
	}
	com := m.committed.Get(key.parent)
	if com == nil || com.Kind != filesys.KindDir {
		return 0, false
	}
	ino, ok := com.Children[key.name]
	return ino, ok
}

func (m *mounted) resetTracking() {
	m.track = make(map[uint64]*inodeTrack)
	m.loggedDentries = make(map[pathKey]uint64)
	m.loggedNames = make(map[uint64]map[pathKey]bool)
	m.loggedDels = make(map[pathKey]bool)
	m.logState = make(map[pathKey]boundState)
	m.delsByUnlink = make(map[pathKey]uint64)
}

func (m *mounted) trackOf(ino uint64) *inodeTrack {
	t, ok := m.track[ino]
	if !ok {
		t = &inodeTrack{}
		m.track[ino] = t
	}
	return t
}

func (m *mounted) markDirty(ino uint64) { m.trackOf(ino).dirty = true }

// anyLoggedInTrans reports whether the log tree holds any inode items in
// the current transaction.
func (m *mounted) anyLoggedInTrans() bool {
	for _, t := range m.track {
		if t.loggedInTrans {
			return true
		}
	}
	return false
}

// parentOf resolves the parent directory node and leaf name of path.
func (m *mounted) parentOf(path string) (*fstree.Node, string, error) {
	parentPath, name := pathParent(path)
	p, err := m.Mem.Lookup(parentPath)
	if err != nil {
		return nil, "", err
	}
	if p.Kind != filesys.KindDir {
		return nil, "", fmt.Errorf("logfs %q: %w", path, filesys.ErrNotDir)
	}
	return p, name, nil
}

// addEntry runs add, which links a new entry at path, and does the
// bookkeeping every entry-adding operation shares: the parent's entry-byte
// accounting grows and both inodes become dirty.
func (m *mounted) addEntry(path string, add func() (*fstree.Node, error)) (*fstree.Node, pathKey, error) {
	if err := m.CheckMounted(); err != nil {
		return nil, pathKey{}, err
	}
	parent, name, err := m.parentOf(path)
	if err != nil {
		return nil, pathKey{}, err
	}
	n, err := add()
	if err != nil {
		return nil, pathKey{}, err
	}
	m.eb[parent.Ino] += entryWeight(name)
	m.markDirty(n.Ino)
	m.markDirty(parent.Ino)
	return n, pathKey{parent.Ino, name}, nil
}

// newInode is addEntry for the operations that create the inode they link:
// the inode remembers the name it was created with.
func (m *mounted) newInode(path string, add func() (*fstree.Node, error)) (*fstree.Node, error) {
	n, key, err := m.addEntry(path, add)
	if err != nil {
		return nil, err
	}
	t := m.trackOf(n.Ino)
	t.origin = key
	t.hasOrigin = true
	return n, nil
}

// Create implements filesys.MountedFS.
func (m *mounted) Create(path string) error {
	_, err := m.newInode(path, func() (*fstree.Node, error) { return m.Mem.Create(path) })
	return err
}

// Mkdir implements filesys.MountedFS.
func (m *mounted) Mkdir(path string) error {
	n, err := m.newInode(path, func() (*fstree.Node, error) { return m.Mem.Mkdir(path) })
	if err == nil {
		m.eb[n.Ino] = 0
	}
	return err
}

// Symlink implements filesys.MountedFS.
func (m *mounted) Symlink(target, linkPath string) error {
	_, err := m.newInode(linkPath, func() (*fstree.Node, error) { return m.Mem.Symlink(target, linkPath) })
	return err
}

// Mkfifo implements filesys.MountedFS.
func (m *mounted) Mkfifo(path string) error {
	_, err := m.newInode(path, func() (*fstree.Node, error) { return m.Mem.Mkfifo(path) })
	return err
}

// Link implements filesys.MountedFS.
func (m *mounted) Link(oldPath, newPath string) error {
	n, _, err := m.addEntry(newPath, func() (*fstree.Node, error) { return m.Mem.Link(oldPath, newPath) })
	if err == nil {
		m.trackOf(n.Ino).newLinkSinceCommit = true
	}
	return err
}

// Unlink implements filesys.MountedFS.
func (m *mounted) Unlink(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	parent, name, err := m.parentOf(path)
	if err != nil {
		return err
	}
	n, gone, err := m.Mem.Unlink(path)
	if err != nil {
		return err
	}
	m.eb[parent.Ino] -= entryWeight(name)
	m.delsByUnlink[pathKey{parent.Ino, name}] = n.Ino
	if gone {
		delete(m.track, n.Ino)
	} else {
		m.markDirty(n.Ino)
	}
	m.markDirty(parent.Ino)
	return nil
}

// Rmdir implements filesys.MountedFS. A directory whose entry-byte
// accounting is non-zero cannot be removed even when it looks empty: this
// is how the btrfs "directory un-removable after log replay" bugs manifest
// (appendix workloads 13, 15, 19, 21, 24).
func (m *mounted) Rmdir(path string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	n, err := m.Mem.Lookup(path)
	if err != nil {
		return err
	}
	if n.Kind == filesys.KindDir && len(n.Children) == 0 && m.eb[n.Ino] != 0 {
		return fmt.Errorf("logfs rmdir %q: stale entries (dir size %d): %w",
			path, m.eb[n.Ino], filesys.ErrNotEmpty)
	}
	parent, name, err := m.parentOf(path)
	if err != nil {
		return err
	}
	if _, err := m.Mem.Rmdir(path); err != nil {
		return err
	}
	m.eb[parent.Ino] -= entryWeight(name)
	delete(m.eb, n.Ino)
	delete(m.track, n.Ino)
	m.markDirty(parent.Ino)
	return nil
}

// Rename implements filesys.MountedFS.
func (m *mounted) Rename(src, dst string) error {
	if err := m.CheckMounted(); err != nil {
		return err
	}
	srcParent, srcName, err := m.parentOf(src)
	if err != nil {
		return err
	}
	dstParent, dstName, err := m.parentOf(dst)
	if err != nil {
		return err
	}
	moved, replaced, err := m.Mem.Rename(src, dst)
	if err != nil {
		return err
	}
	m.eb[srcParent.Ino] -= entryWeight(srcName)
	if replaced == nil {
		m.eb[dstParent.Ino] += entryWeight(dstName)
	} else {
		// Replacement: the old entry's weight is traded for the new one's
		// (same name, so no net change).
		if replaced.Kind == filesys.KindDir {
			delete(m.eb, replaced.Ino)
		}
		if replaced.Nlink <= 0 {
			delete(m.track, replaced.Ino)
		}
	}
	t := m.trackOf(moved.Ino)
	t.dirty = true
	if t.renamedFrom == nil {
		t.renamedFrom = &pathKey{srcParent.Ino, srcName}
	}
	m.markDirty(srcParent.Ino)
	m.markDirty(dstParent.Ino)
	return nil
}

// Touched implements diskfmt.Strategy for the operations logfs leaves to
// the base: content and attribute changes mark the inode dirty for the
// next fsync.
func (m *mounted) Touched(n *fstree.Node, c diskfmt.Change) {
	t := m.trackOf(n.Ino)
	if c.Op == diskfmt.OpFalloc && c.Mode == filesys.FallocPunchHole {
		t.punches = append(t.punches, punchRec{off: c.Off, end: c.Off + c.Length})
		wholeBlocks := alignUp(c.Off) < alignDown(c.Off+c.Length)
		if !wholeBlocks && m.fs.Has("btrfs-partial-page-punch-not-logged") {
			// BUG: a punch that frees no whole block fails to mark the
			// inode dirty, so a following fsync logs nothing (workload 17).
			return
		}
	}
	t.dirty = true
}

// PersistDirect implements diskfmt.Strategy. Direct IO bypasses the page
// cache: the data and the size update it implies reach the log immediately.
func (m *mounted) PersistDirect(n *fstree.Node, off int64, data []byte) error {
	m.markDirty(n.Ino)
	// btrfs direct IO writes data synchronously; model as a ranged log.
	return m.logAndFlush(n, &punchRec{off: off, end: off + int64(len(data))})
}

// PersistNode implements diskfmt.Strategy.
func (m *mounted) PersistNode(n *fstree.Node) error { return m.logAndFlush(n, nil) }

// PersistData implements diskfmt.Strategy. btrfs treats fdatasync like
// fsync through the tree-log path.
func (m *mounted) PersistData(n *fstree.Node) error { return m.logAndFlush(n, nil) }

// PersistRange implements diskfmt.Strategy (ranged persistence of an mmap
// region).
func (m *mounted) PersistRange(n *fstree.Node, off, length int64) error {
	if n.Kind != filesys.KindRegular {
		return fmt.Errorf("logfs msync inode %d: %w", n.Ino, filesys.ErrInvalid)
	}
	return m.logAndFlush(n, &punchRec{off: off, end: off + length})
}

// Checkpoint implements diskfmt.Strategy: a full transaction commit writes
// the tree as a new generation and clears the log.
func (m *mounted) Checkpoint() error {
	if err := m.WriteCheckpoint(func(e *codec.Encoder) { encodeEntryBytes(e, m.eb) }); err != nil {
		return err
	}
	m.committed = m.Mem.Clone()
	m.ebCommit = cloneEB(m.eb)
	m.resetTracking()
	return nil
}

// Stat implements filesys.MountedFS.
func (m *mounted) Stat(path string) (filesys.Stat, error) {
	st, err := m.Mounted.Stat(path)
	if err == nil && st.Kind == filesys.KindDir {
		// Directory size reflects the entry-byte accounting, mirroring
		// btrfs's i_size for directories.
		st.Size = m.eb[st.Ino]
	}
	return st, err
}

const blockSize = int64(blockdev.BlockSize)

func alignDown(v int64) int64 { return v &^ (blockSize - 1) }
func alignUp(v int64) int64   { return (v + blockSize - 1) &^ (blockSize - 1) }
