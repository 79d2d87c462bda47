package f2fsim

import (
	"sort"

	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// inodeState tracks per-inode dirt between checkpoints.
type inodeState struct {
	dataDirty bool
	metaDirty bool
	allocOnly bool  // only KEEP_SIZE allocation beyond EOF pending
	zeroEnd   int64 // end of a zero_range KEEP_SIZE beyond EOF (Table 5 #9)
}

// mounted is a mounted f2fsim instance: the shared base plus the strategy
// of checkpoints with a roll-forward node log.
type mounted struct {
	diskfmt.Mounted
	fs *FS

	// committed is the state as of the last checkpoint. It is read-only:
	// it may be the tree LoadImage shares with every other mount of the
	// same image.
	committed *fstree.Tree

	state       map[uint64]*inodeState
	renamedDirs map[uint64]bool   // directories renamed since the checkpoint
	recorded    map[refRec]uint64 // bindings written to the node log
}

// captureCommitted makes committed, which nobody may mutate, the durable
// state and starts the dirt tracking over.
func (m *mounted) captureCommitted(committed *fstree.Tree) {
	m.committed = committed
	m.renamedDirs = map[uint64]bool{}
	m.state = map[uint64]*inodeState{}
	m.recorded = map[refRec]uint64{}
}

func (m *mounted) stateOf(ino uint64) *inodeState {
	s, ok := m.state[ino]
	if !ok {
		s = &inodeState{}
		m.state[ino] = s
	}
	return s
}

// Checkpoint implements diskfmt.Strategy.
func (m *mounted) Checkpoint() error {
	if err := m.WriteCheckpoint(nil); err != nil {
		return err
	}
	m.captureCommitted(m.Mem.Clone())
	return nil
}

// writeFsyncRecord appends one node-log record and flushes.
func (m *mounted) writeFsyncRecord(entries []fsyncEntry) error {
	if err := m.AppendRecord(func(e *codec.Encoder) { encodeRecord(e, entries) }); err != nil {
		return err
	}
	for _, ent := range entries {
		for _, r := range ent.dels {
			if m.recorded[r] == ent.node.Ino {
				delete(m.recorded, r)
			}
		}
		for _, r := range ent.refs {
			m.recorded[r] = ent.node.Ino
		}
	}
	return nil
}

// buildEntry assembles the fsync record entry for node n, applying the
// file-content bugs.
func (m *mounted) buildEntry(n *fstree.Node) fsyncEntry {
	st := m.stateOf(n.Ino)
	node := n.Clone()
	node.Children = nil

	// BUG N9 (Table 5 #9): zero_range with KEEP_SIZE fails to set the
	// keep-size bit in the node; recovery extends the file to the end of
	// the zeroed range.
	if m.fs.Has("f2fs-zero-range-keep-size-size") && st.zeroEnd > node.Size() {
		node.Resize(st.zeroEnd)
	}

	ent := fsyncEntry{node: node}
	current := map[refRec]bool{}
	for _, p := range m.Mem.PathsOf(n.Ino) {
		parentPath, name := pathParent(p)
		parent, err := m.Mem.Lookup(parentPath)
		if err != nil {
			continue
		}
		r := refRec{parent: parent.Ino, name: name}
		current[r] = true
		ent.refs = append(ent.refs, r)
	}
	// Stale names: references the durable state (checkpoint or an earlier
	// node-log record) still binds to this inode.
	stale := map[refRec]bool{}
	for _, p := range m.committed.PathsOf(n.Ino) {
		parentPath, name := pathParent(p)
		parent, err := m.committed.Lookup(parentPath)
		if err != nil {
			continue
		}
		r := refRec{parent: parent.Ino, name: name}
		if !current[r] {
			stale[r] = true
		}
	}
	for r, ino := range m.recorded {
		if ino == n.Ino && !current[r] {
			stale[r] = true
		}
	}
	staleList := make([]refRec, 0, len(stale))
	for r := range stale {
		staleList = append(staleList, r)
	}
	sort.Slice(staleList, func(i, j int) bool {
		if staleList[i].parent != staleList[j].parent {
			return staleList[i].parent < staleList[j].parent
		}
		return staleList[i].name < staleList[j].name
	})
	ent.dels = staleList
	return ent
}

// fsyncFile writes the roll-forward record for one file.
func (m *mounted) fsyncFile(n *fstree.Node) error {
	// BUG N10 (Table 5 #10): a file fsynced under a directory renamed since
	// the last checkpoint recovers into the directory's old location. The
	// fix (fsync_mode=strict) forces a checkpoint instead.
	if m.ancestorRenamed(n) {
		if !m.fs.Has("f2fs-renamed-dir-child-old-loc") {
			return m.Checkpoint()
		}
	}

	// Materialize uncommitted ancestor directories first: roll-forward can
	// only link the file if its parent chain exists at recovery.
	entries := m.ancestorEntries(n)
	entries = append(entries, m.buildEntry(n))

	// Dragging the committed occupant of a reused name (the workload-1
	// shape: rename away, recreate, fsync the new file). BUG W1/F2FS skips
	// the drag and the renamed-away file is lost.
	if !m.fs.Has("f2fs-rename-old-file-lost-on-new-fsync") {
		for _, r := range entries[0].refs {
			com := m.committed.Get(r.parent)
			if com == nil {
				continue
			}
			j, ok := com.Children[r.name]
			if !ok || j == n.Ino {
				continue
			}
			if jNode := m.Mem.Get(j); jNode != nil && jNode.Kind != filesys.KindDir {
				// The dragged inode's own parent chain must exist at
				// recovery too.
				entries = append(entries, m.ancestorEntries(jNode)...)
				entries = append(entries, m.buildEntry(jNode))
			}
		}
	}

	if err := m.writeFsyncRecord(entries); err != nil {
		return err
	}
	st := m.stateOf(n.Ino)
	st.dataDirty = false
	st.metaDirty = false
	st.allocOnly = false
	st.zeroEnd = 0
	return nil
}

// ancestorEntries returns fsync entries for every directory on the node's
// paths that does not exist in the last checkpoint, ordered parents first.
func (m *mounted) ancestorEntries(n *fstree.Node) []fsyncEntry {
	var out []fsyncEntry
	seen := map[uint64]bool{}
	for _, p := range m.Mem.PathsOf(n.Ino) {
		comps := fstree.SplitPath(p)
		cur := m.Mem.Root()
		for _, comp := range comps[:max(0, len(comps)-1)] {
			childIno, ok := cur.Children[comp]
			if !ok {
				break
			}
			child := m.Mem.Get(childIno)
			if child == nil || child.Kind != filesys.KindDir {
				break
			}
			if m.committed.Get(childIno) == nil && !seen[childIno] {
				seen[childIno] = true
				node := child.Clone()
				node.Children = nil
				ent := fsyncEntry{node: node}
				ent.refs = append(ent.refs, refRec{parent: cur.Ino, name: comp})
				out = append(out, ent)
			}
			cur = child
		}
	}
	return out
}

// ancestorRenamed reports whether any directory on the node's first path
// was renamed since the last checkpoint.
func (m *mounted) ancestorRenamed(n *fstree.Node) bool {
	paths := m.Mem.PathsOf(n.Ino)
	if len(paths) == 0 {
		return false
	}
	comps := fstree.SplitPath(paths[0])
	cur := m.Mem.Root()
	for _, comp := range comps[:max(0, len(comps)-1)] {
		childIno, ok := cur.Children[comp]
		if !ok {
			return false
		}
		if m.renamedDirs[childIno] {
			return true
		}
		child := m.Mem.Get(childIno)
		if child == nil || child.Kind != filesys.KindDir {
			return false
		}
		cur = child
	}
	return false
}

// Touched implements diskfmt.Strategy: record per-inode dirt between
// checkpoints.
func (m *mounted) Touched(n *fstree.Node, c diskfmt.Change) {
	switch c.Op {
	case diskfmt.OpCreate, diskfmt.OpLink, diskfmt.OpSetXattr, diskfmt.OpRemoveXattr:
		m.stateOf(n.Ino).metaDirty = true
	case diskfmt.OpRename:
		if n.Kind == filesys.KindDir {
			m.renamedDirs[n.Ino] = true
		}
		m.stateOf(n.Ino).metaDirty = true
	case diskfmt.OpWrite:
		m.stateOf(n.Ino).dataDirty = true
	case diskfmt.OpTruncate:
		st := m.stateOf(n.Ino)
		st.dataDirty = true
		st.metaDirty = true
	case diskfmt.OpFalloc:
		st := m.stateOf(n.Ino)
		end := c.Off + c.Length
		switch {
		case c.Mode == filesys.FallocKeepSize && c.Off >= n.Size():
			if !st.dataDirty && !st.metaDirty {
				st.allocOnly = true
			}
		case c.Mode == filesys.FallocZeroRangeKeepSize && end > n.Size():
			st.dataDirty = true
			if end > st.zeroEnd {
				st.zeroEnd = end
			}
		default:
			st.dataDirty = true
			st.metaDirty = true
		}
	case diskfmt.OpMkdir, diskfmt.OpSymlink, diskfmt.OpMkfifo, diskfmt.OpUnlink, diskfmt.OpRmdir:
		// Durable at the next checkpoint, or materialized as an ancestor
		// entry when a file beneath is fsynced; no dirt to track.
	}
}

// PersistDirect implements diskfmt.Strategy: direct IO data is durable at
// completion, carried by an immediate fsync record.
func (m *mounted) PersistDirect(n *fstree.Node, _ int64, _ []byte) error {
	m.stateOf(n.Ino).dataDirty = true
	return m.fsyncFile(n)
}

// PersistNode implements diskfmt.Strategy. Directory fsync forces a
// checkpoint (F2FS behaviour); file fsync writes a roll-forward node record.
func (m *mounted) PersistNode(n *fstree.Node) error {
	if n.Kind == filesys.KindDir {
		return m.Checkpoint()
	}
	return m.fsyncFile(n)
}

// PersistRange implements diskfmt.Strategy.
func (m *mounted) PersistRange(n *fstree.Node, _, _ int64) error { return m.PersistNode(n) }

// PersistData implements diskfmt.Strategy. BUG W2/F2FS: when only KEEP_SIZE
// allocation beyond EOF is pending, the node looks clean and fdatasync
// becomes a no-op; the allocated blocks are lost on crash.
func (m *mounted) PersistData(n *fstree.Node) error {
	if n.Kind != filesys.KindDir && m.fs.Has("f2fs-fdatasync-falloc-keepsize") {
		if st, ok := m.state[n.Ino]; ok && st.allocOnly && !st.dataDirty && !st.metaDirty {
			return nil
		}
	}
	return m.PersistNode(n)
}

// pathParent returns the parent path and leaf name of a clean path.
func pathParent(path string) (string, string) {
	comps := fstree.SplitPath(path)
	if len(comps) == 0 {
		return "/", ""
	}
	parent := "/"
	for i := 0; i < len(comps)-1; i++ {
		if parent == "/" {
			parent = "/" + comps[i]
		} else {
			parent += "/" + comps[i]
		}
	}
	return parent, comps[len(comps)-1]
}
