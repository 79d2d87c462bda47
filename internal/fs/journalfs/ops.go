package journalfs

import (
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// dirtyState tracks, per inode, which kinds of change are pending since the
// last commit — the inputs to the fdatasync fast-path decision where the
// W2 bug lives.
type dirtyState struct {
	data      bool // file content changed
	meta      bool // size/namespace/xattr changed
	allocOnly bool // only block allocation beyond EOF changed (KEEP_SIZE)
}

// mounted is a mounted journalfs instance: the shared base plus the
// strategy of an ordered-mode journal.
type mounted struct {
	diskfmt.Mounted
	fs *FS

	dirty        map[uint64]*dirtyState
	durableSizes map[uint64]int64 // i_disksize: sizes as of the last commit
}

func (m *mounted) captureDurableSizes() {
	m.durableSizes = make(map[uint64]int64, m.Mem.NodeCount())
	m.Mem.WalkNodes(func(n *fstree.Node) {
		if n.Kind == filesys.KindRegular {
			m.durableSizes[n.Ino] = n.Size()
		}
	})
}

func (m *mounted) dirtyOf(ino uint64) *dirtyState {
	d, ok := m.dirty[ino]
	if !ok {
		d = &dirtyState{}
		m.dirty[ino] = d
	}
	return d
}

func (m *mounted) appendRecord(r journalRecord) error {
	return m.AppendRecord(func(e *codec.Encoder) { encodeRecord(e, r) })
}

// commitJournal appends a full-image transaction: ordered mode flushes all
// dirty data, then the metadata (we persist the complete current tree).
func (m *mounted) commitJournal() error {
	if err := m.appendRecord(journalRecord{kind: recFullImage, tree: m.Mem}); err != nil {
		return err
	}
	m.dirty = map[uint64]*dirtyState{}
	m.captureDurableSizes()
	return nil
}

// Checkpoint implements diskfmt.Strategy: write the image region and reset
// the journal.
func (m *mounted) Checkpoint() error {
	if err := m.WriteCheckpoint(nil); err != nil {
		return err
	}
	m.dirty = map[uint64]*dirtyState{}
	m.captureDurableSizes()
	return nil
}

// Touched implements diskfmt.Strategy: record what kind of change is
// pending on the inode (buffered writes use delayed allocation).
func (m *mounted) Touched(n *fstree.Node, c diskfmt.Change) {
	switch c.Op {
	case diskfmt.OpCreate, diskfmt.OpMkdir, diskfmt.OpLink, diskfmt.OpRename,
		diskfmt.OpSetXattr, diskfmt.OpRemoveXattr:
		m.dirtyOf(n.Ino).meta = true
	case diskfmt.OpWrite:
		m.dirtyOf(n.Ino).data = true
	case diskfmt.OpTruncate:
		d := m.dirtyOf(n.Ino)
		d.data = true
		d.meta = true
	case diskfmt.OpFalloc:
		d := m.dirtyOf(n.Ino)
		if c.Mode == filesys.FallocKeepSize && c.Off >= m.durableSizes[n.Ino] && !d.data && !d.meta {
			// Only block allocation beyond EOF changed: the fdatasync fast
			// path (and its W2 bug) keys off this state.
			d.allocOnly = true
			return
		}
		d.data = true
		d.meta = true
	case diskfmt.OpSymlink, diskfmt.OpMkfifo, diskfmt.OpUnlink, diskfmt.OpRmdir:
		// Journalled with the next commit like everything else; no fast
		// path keys off them.
	}
}

// PersistDirect implements diskfmt.Strategy. The data bypasses the page
// cache and reaches the disk immediately; the i_disksize update travels in
// a journal record. BUG W4 (appendix 9.1 #4): a direct write past the
// on-disk size fails to update i_disksize, so after a crash the file has
// allocated blocks but size zero.
func (m *mounted) PersistDirect(n *fstree.Node, off int64, data []byte) error {
	size := m.durableSizes[n.Ino]
	end := off + int64(len(data))
	if end > size && !m.fs.Has("ext4-dwrite-disksize") {
		size = end
	}
	if err := m.appendRecord(journalRecord{
		kind: recDirect, ino: n.Ino, off: off, data: fstree.Flat(data), size: size,
	}); err != nil {
		return err
	}
	m.durableSizes[n.Ino] = size
	return nil
}

// PersistNode implements diskfmt.Strategy: fsync commits the running
// transaction.
func (m *mounted) PersistNode(*fstree.Node) error { return m.commitJournal() }

// PersistRange implements diskfmt.Strategy.
func (m *mounted) PersistRange(*fstree.Node, int64, int64) error { return m.commitJournal() }

// PersistData implements diskfmt.Strategy. BUG W2 (appendix 9.1 #2): when
// the only pending change is block allocation beyond EOF from fallocate
// KEEP_SIZE, the fast path sees an unchanged size and skips the commit;
// the allocated blocks are lost on crash.
func (m *mounted) PersistData(n *fstree.Node) error {
	if m.fs.Has("ext4-fdatasync-falloc-keepsize") {
		if d, ok := m.dirty[n.Ino]; ok && d.allocOnly && !d.data && !d.meta &&
			n.Size() == m.durableSizes[n.Ino] {
			return nil
		}
	}
	return m.commitJournal()
}
