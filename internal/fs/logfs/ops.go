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
// a copy-on-write tree with a per-fsync log. The strategy's Touched keeps
// the directory entry-byte accounting (eb) and the per-inode tracking; only
// Rmdir, which refuses a directory with stale entries, and Stat, which
// reports that accounting as a directory's size, override the base.
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

// parentOf returns the inode of the directory holding path's last
// component, and that component, as the tree resolved them for the call
// that named path. It serves Touched: the call succeeded, and its parent
// path resolves to the same directory after it as before.
func (m *mounted) parentOf(path string) (uint64, string) {
	parent, name, err := parentIn(m.Mem, path)
	if err != nil {
		panic(fmt.Sprintf("logfs: parent of applied %q: %v", path, err))
	}
	return parent.Ino, name
}

// addEntry does the bookkeeping every entry-adding operation shares: the
// parent's entry-byte accounting grows and both inodes become dirty.
func (m *mounted) addEntry(n *fstree.Node, path string) pathKey {
	parent, name := m.parentOf(path)
	m.eb[parent] += entryWeight(name)
	m.markDirty(n.Ino)
	m.markDirty(parent)
	return pathKey{parent, name}
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
	return m.Mounted.Rmdir(path)
}

// Touched implements diskfmt.Strategy. Namespace operations move entry
// bytes between directories (a replacement trades the old entry's weight
// for the new one's: same name, so no net change) and record the names the
// log needs; every change marks the inodes it touched dirty for the next
// fsync.
func (m *mounted) Touched(n *fstree.Node, c diskfmt.Change) {
	switch c.Op {
	case diskfmt.OpCreate, diskfmt.OpMkdir, diskfmt.OpSymlink, diskfmt.OpMkfifo:
		// The inode remembers the name it was created with.
		t := m.trackOf(n.Ino)
		t.origin = m.addEntry(n, c.Path)
		t.hasOrigin = true
		if c.Op == diskfmt.OpMkdir {
			m.eb[n.Ino] = 0
		}
	case diskfmt.OpLink:
		m.addEntry(n, c.Path)
		m.trackOf(n.Ino).newLinkSinceCommit = true
	case diskfmt.OpUnlink:
		parent, name := m.parentOf(c.Path)
		m.eb[parent] -= entryWeight(name)
		m.delsByUnlink[pathKey{parent, name}] = n.Ino
		if n.Nlink <= 0 {
			delete(m.track, n.Ino)
		} else {
			m.markDirty(n.Ino)
		}
		m.markDirty(parent)
	case diskfmt.OpRmdir:
		parent, name := m.parentOf(c.Path)
		m.eb[parent] -= entryWeight(name)
		delete(m.eb, n.Ino)
		delete(m.track, n.Ino)
		m.markDirty(parent)
	case diskfmt.OpRename:
		srcParent, srcName := m.parentOf(c.Path)
		dstParent, dstName := m.parentOf(c.Dst)
		m.eb[srcParent] -= entryWeight(srcName)
		if r := c.Replaced; r == nil {
			m.eb[dstParent] += entryWeight(dstName)
		} else {
			if r.Kind == filesys.KindDir {
				delete(m.eb, r.Ino)
			}
			if r.Nlink <= 0 {
				delete(m.track, r.Ino)
			}
		}
		t := m.trackOf(n.Ino)
		t.dirty = true
		if t.renamedFrom == nil {
			t.renamedFrom = &pathKey{srcParent, srcName}
		}
		m.markDirty(srcParent)
		m.markDirty(dstParent)
	case diskfmt.OpFalloc:
		t := m.trackOf(n.Ino)
		if c.Mode == filesys.FallocPunchHole {
			t.punches = append(t.punches, punchRec{off: c.Off, end: c.Off + c.Length})
			wholeBlocks := alignUp(c.Off) < alignDown(c.Off+c.Length)
			if !wholeBlocks && m.fs.Has("btrfs-partial-page-punch-not-logged") {
				// BUG: a punch that frees no whole block fails to mark the
				// inode dirty, so a following fsync logs nothing (workload
				// 17).
				return
			}
		}
		t.dirty = true
	case diskfmt.OpTruncate, diskfmt.OpWrite, diskfmt.OpSetXattr, diskfmt.OpRemoveXattr:
		m.markDirty(n.Ino)
	}
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
