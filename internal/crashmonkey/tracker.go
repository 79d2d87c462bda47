package crashmonkey

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"b3/internal/filesys"
	"b3/internal/fstree"
	"b3/internal/workload"
)

// The tracker is CrashMonkey's oracle (§5.1): it shadows the workload on a
// logical model and maintains, per inode and per directory entry, what must
// survive a crash at each persistence point — honouring the per-file-system
// Guarantees the developers confirmed. Only files and directories that were
// explicitly persisted are checked (§4.1); persisting *more* than required
// is always legal (oversync); renames that were not persisted must leave
// the file at exactly one of its names (atomicity).

// persistLevel orders how much of an inode's state a persistence event pins.
type persistLevel uint8

const (
	levelNone   persistLevel = iota
	levelExists              // existence only (dir-fsync child materialization)
	levelData                // data + size (+ allocation, per guarantees)
	levelFull                // everything incl. xattrs
)

// fileState is a point-in-time snapshot of an inode's checkable state. It is
// never modified after construction, so expectations share it, and data
// shares the model's immutable file content, page for page (fstree.Content).
type fileState struct {
	kind    filesys.FileKind
	size    int64
	data    fstree.Content
	sectors int64
	nlink   int
	xattrs  map[string][]byte
	target  string
}

func snapshotNode(n *fstree.Node) *fileState {
	st := &fileState{
		kind:    n.Kind,
		size:    n.Size(),
		sectors: n.Sectors(),
		nlink:   n.Nlink,
		target:  n.Target,
	}
	if n.Kind == filesys.KindRegular {
		st.data = n.Data
	}
	if len(n.Xattrs) > 0 {
		st.xattrs = maps.Clone(n.Xattrs)
	}
	return st
}

// rangeExpect is a byte range pinned by msync or direct IO; data shares the
// model's pages (fstree.Content.Slice).
type rangeExpect struct {
	off  int64
	data fstree.Content
}

// fileExpect is the persisted-state expectation for one inode.
type fileExpect struct {
	ino        uint64
	level      persistLevel
	state      *fileState
	modified   bool // content changed since the persist snapshot
	nsModified bool // namespace ops involving the inode since the snapshot
	accepted   []*fileState
	ranges     []rangeExpect
	minSize    int64
}

const maxAcceptedStates = 8

// dentryKey identifies a directory entry.
type dentryKey struct {
	parent uint64
	name   string
}

// dentryExpect tracks one (parent, name) -> inode binding across its life.
type dentryExpect struct {
	key           dentryKey
	ino           uint64
	level         persistLevel // > none: binding persisted (required)
	removed       bool         // removed since persisted (absence is legal)
	movedTo       *dentryKey   // renamed since persisted (atomicity chain)
	absent        bool         // deletion persisted: must NOT resolve to ino
	unlinkedLater bool         // chain target later unlinked: zero presence OK
}

// Tracker shadows a workload and produces crash expectations.
type Tracker struct {
	g        filesys.Guarantees
	model    *fstree.Tree
	files    map[uint64]*fileExpect
	bindings []*dentryExpect
}

// NewTracker builds a tracker for a file system with the given guarantees.
func NewTracker(g filesys.Guarantees) *Tracker {
	return &Tracker{
		g:     g,
		model: fstree.New(),
		files: make(map[uint64]*fileExpect),
	}
}

func (t *Tracker) fileOf(ino uint64) *fileExpect {
	fe, ok := t.files[ino]
	if !ok {
		fe = &fileExpect{ino: ino}
		t.files[ino] = fe
	}
	return fe
}

// activeBinding finds the live (non-absent, non-removed) binding at key.
func (t *Tracker) activeBinding(key dentryKey) *dentryExpect {
	for i := len(t.bindings) - 1; i >= 0; i-- {
		b := t.bindings[i]
		if b.key == key && !b.removed && !b.absent {
			return b
		}
	}
	return nil
}

func (t *Tracker) addBinding(key dentryKey, ino uint64) *dentryExpect {
	b := &dentryExpect{key: key, ino: ino}
	t.bindings = append(t.bindings, b)
	return b
}

func (t *Tracker) keyOf(path string) (dentryKey, error) {
	comps := fstree.SplitPath(path)
	if len(comps) == 0 {
		return dentryKey{}, fmt.Errorf("tracker: no dentry for root")
	}
	parentPath := "/"
	for i := 0; i < len(comps)-1; i++ {
		if parentPath == "/" {
			parentPath = "/" + comps[i]
		} else {
			parentPath += "/" + comps[i]
		}
	}
	parent, err := t.model.Lookup(parentPath)
	if err != nil {
		return dentryKey{}, err
	}
	return dentryKey{parent: parent.Ino, name: comps[len(comps)-1]}, nil
}

// markModified records a content change on ino after its persist snapshot.
func (t *Tracker) markModified(ino uint64) {
	fe, ok := t.files[ino]
	if !ok || fe.level < levelData {
		return
	}
	fe.modified = true
	if n := t.model.Get(ino); n != nil && len(fe.accepted) < maxAcceptedStates {
		fe.accepted = append(fe.accepted, snapshotNode(n))
	}
}

func (t *Tracker) markNsModified(ino uint64) {
	if fe, ok := t.files[ino]; ok {
		fe.nsModified = true
	}
}

// trimRanges drops pinned-range expectations overlapping [off, end).
func (t *Tracker) trimRanges(ino uint64, off, end int64) {
	fe, ok := t.files[ino]
	if !ok || len(fe.ranges) == 0 {
		return
	}
	var kept []rangeExpect
	for _, r := range fe.ranges {
		rEnd := r.off + r.data.Len()
		if rEnd <= off || r.off >= end {
			kept = append(kept, r)
			continue
		}
		// Keep non-overlapping fragments.
		if r.off < off {
			kept = append(kept, rangeExpect{off: r.off, data: r.data.Slice(0, off-r.off)})
		}
		if rEnd > end {
			kept = append(kept, rangeExpect{off: end, data: r.data.Slice(end-r.off, rEnd-r.off)})
		}
	}
	fe.ranges = kept
}

// Apply mirrors one workload op onto the model and updates expectations.
// The op must already have succeeded on the real file system.
func (t *Tracker) Apply(op workload.Op, opIndex int) error {
	switch op.Kind {
	case workload.OpCreat:
		n, err := t.model.Create(op.Path)
		if err != nil {
			return err
		}
		key, _ := t.keyOf(op.Path)
		t.addBinding(key, n.Ino)
	case workload.OpMkdir:
		n, err := t.model.Mkdir(op.Path)
		if err != nil {
			return err
		}
		key, _ := t.keyOf(op.Path)
		t.addBinding(key, n.Ino)
	case workload.OpSymlink:
		n, err := t.model.Symlink(op.Path, op.Path2)
		if err != nil {
			return err
		}
		key, _ := t.keyOf(op.Path2)
		t.addBinding(key, n.Ino)
	case workload.OpMkfifo:
		n, err := t.model.Mkfifo(op.Path)
		if err != nil {
			return err
		}
		key, _ := t.keyOf(op.Path)
		t.addBinding(key, n.Ino)
	case workload.OpLink:
		n, err := t.model.Link(op.Path, op.Path2)
		if err != nil {
			return err
		}
		key, _ := t.keyOf(op.Path2)
		t.addBinding(key, n.Ino)
		t.markNsModified(n.Ino)
	case workload.OpUnlink:
		return t.applyUnlink(op.Path)
	case workload.OpRmdir:
		key, err := t.keyOf(op.Path)
		if err != nil {
			return err
		}
		n, err := t.model.Rmdir(op.Path)
		if err != nil {
			return err
		}
		t.removeBinding(key, n.Ino)
	case workload.OpRemove:
		if n, err := t.model.Lookup(op.Path); err == nil && n.Kind == filesys.KindDir {
			key, _ := t.keyOf(op.Path)
			if _, err := t.model.Rmdir(op.Path); err != nil {
				return err
			}
			t.removeBinding(key, n.Ino)
			return nil
		}
		return t.applyUnlink(op.Path)
	case workload.OpRename:
		return t.applyRename(op.Path, op.Path2)
	case workload.OpTruncate:
		n, err := t.model.Truncate(op.Path, op.Off)
		if err != nil {
			return err
		}
		fe := t.fileOf(n.Ino)
		fe.ranges = nil
		fe.minSize = 0
		t.markModified(n.Ino)
	case workload.OpWrite, workload.OpMWrite:
		n, err := t.model.Write(op.Path, op.Off, workload.Fill(opIndex, op.Len))
		if err != nil {
			return err
		}
		t.trimRanges(n.Ino, op.Off, op.Off+op.Len)
		t.markModified(n.Ino)
	case workload.OpDWrite:
		n, err := t.model.Write(op.Path, op.Off, workload.Fill(opIndex, op.Len))
		if err != nil {
			return err
		}
		t.trimRanges(n.Ino, op.Off, op.Off+op.Len)
		t.markModified(n.Ino)
		t.eventDWrite(n, op.Off, op.Off+op.Len)
	case workload.OpFalloc:
		n, err := t.model.Falloc(op.Path, op.Mode, op.Off, op.Len)
		if err != nil {
			return err
		}
		if op.Mode == filesys.FallocPunchHole || op.Mode == filesys.FallocZeroRange ||
			op.Mode == filesys.FallocZeroRangeKeepSize {
			t.trimRanges(n.Ino, op.Off, op.Off+op.Len)
		}
		t.markModified(n.Ino)
	case workload.OpSetXattr:
		n, err := t.model.SetXattr(op.Path, op.Name, []byte(op.Value))
		if err != nil {
			return err
		}
		t.markModified(n.Ino)
	case workload.OpRemoveXattr:
		n, err := t.model.RemoveXattr(op.Path, op.Name)
		if err != nil {
			return err
		}
		t.markModified(n.Ino)
	case workload.OpFsync:
		return t.eventFsync(op.Path)
	case workload.OpFdatasync:
		return t.eventFdatasync(op.Path)
	case workload.OpMSync:
		return t.eventMSync(op.Path, op.Off, op.Len)
	case workload.OpSync:
		t.eventSync()
	default:
		return fmt.Errorf("tracker: unsupported op %v", op.Kind)
	}
	return nil
}

func (t *Tracker) applyUnlink(path string) error {
	key, err := t.keyOf(path)
	if err != nil {
		return err
	}
	n, _, err := t.model.Unlink(path)
	if err != nil {
		return err
	}
	t.removeBinding(key, n.Ino)
	t.markNsModified(n.Ino)
	return nil
}

// removeBinding processes the removal of (key -> ino).
func (t *Tracker) removeBinding(key dentryKey, ino uint64) {
	for i := len(t.bindings) - 1; i >= 0; i-- {
		b := t.bindings[i]
		if b.key != key || b.ino != ino || b.removed || b.absent {
			continue
		}
		if b.level == levelNone {
			// Never persisted: nothing to expect; drop it.
			t.bindings = append(t.bindings[:i], t.bindings[i+1:]...)
		} else {
			b.removed = true
		}
		// Mark chains ending at this binding.
		t.markChainUnlinked(key, ino)
		return
	}
}

// isChainTarget reports whether some binding's rename chain points at key.
func (t *Tracker) isChainTarget(key dentryKey, ino uint64) bool {
	for _, b := range t.bindings {
		if b.ino == ino && b.movedTo != nil && *b.movedTo == key {
			return true
		}
	}
	return false
}

func (t *Tracker) markChainUnlinked(key dentryKey, ino uint64) {
	for _, b := range t.bindings {
		if b.ino == ino && b.movedTo != nil && *b.movedTo == key {
			b.unlinkedLater = true
		}
	}
}

func (t *Tracker) applyRename(src, dst string) error {
	srcKey, err := t.keyOf(src)
	if err != nil {
		return err
	}
	dstKey, err := t.keyOf(dst)
	if err != nil {
		return err
	}
	moved, replaced, err := t.model.Rename(src, dst)
	if err != nil {
		return err
	}
	// The replaced occupant's binding, if persisted, becomes tolerant:
	// present (old state) or absent (new state) are both legal until a
	// persistence event pins one.
	if replaced != nil {
		replacedDead := replaced.Nlink <= 0 || replaced.Kind == filesys.KindDir
		for i := len(t.bindings) - 1; i >= 0; i-- {
			b := t.bindings[i]
			if b.key == dstKey && b.ino == replaced.Ino && !b.removed && !b.absent {
				if b.level == levelNone {
					t.bindings = append(t.bindings[:i], t.bindings[i+1:]...)
				} else {
					b.removed = true
					if replacedDead {
						b.unlinkedLater = true
					}
				}
				break
			}
		}
		if replacedDead {
			// A rename chain ending at a binding destroyed by replacement
			// may legally leave the inode at no name.
			t.markChainUnlinked(dstKey, replaced.Ino)
		}
		t.markNsModified(replaced.Ino)
	}
	// The source binding becomes part of a rename-atomicity chain. An
	// unpersisted binding imposes nothing itself, but when it is the hop
	// of an existing chain it must stay as a link so the chain reaches the
	// file's final name.
	for i := len(t.bindings) - 1; i >= 0; i-- {
		b := t.bindings[i]
		if b.key == srcKey && b.ino == moved.Ino && !b.removed && !b.absent {
			if b.level == levelNone && !t.isChainTarget(srcKey, moved.Ino) {
				t.bindings = append(t.bindings[:i], t.bindings[i+1:]...)
			} else {
				mt := dstKey
				b.removed = true
				b.movedTo = &mt
			}
			break
		}
	}
	t.addBinding(dstKey, moved.Ino)
	t.markNsModified(moved.Ino)
	return nil
}

// ---- persistence events ---------------------------------------------------

func (t *Tracker) persistInode(n *fstree.Node, level persistLevel) {
	fe := t.fileOf(n.Ino)
	fe.level = level
	fe.state = snapshotNode(n)
	fe.modified = false
	fe.nsModified = false
	fe.accepted = nil
	if level >= levelData {
		fe.ranges = nil
		fe.minSize = 0
	}
}

// persistBinding pins (key -> ino); persisted bindings of other inodes at
// the same key become required-absent (the replacement is durable).
// It reports the displaced persisted binding, if any.
func (t *Tracker) persistBinding(key dentryKey, ino uint64) *dentryExpect {
	var displaced *dentryExpect
	for _, b := range t.bindings {
		if b.key != key {
			continue
		}
		if b.ino == ino {
			b.level = maxLevel(b.level, levelExists)
			b.removed = false
			b.movedTo = nil
			b.absent = false
			continue
		}
		if b.level > levelNone && !b.absent {
			b.absent = true
			displaced = b
		}
	}
	if t.activeBinding(key) == nil || t.activeBinding(key).ino != ino {
		nb := t.addBinding(key, ino)
		nb.level = levelExists
	}
	return displaced
}

func maxLevel(a, b persistLevel) persistLevel {
	if a > b {
		return a
	}
	return b
}

// eventSync pins the entire tree (§3: sync reliably changes the on-storage
// state; everything existing now must survive).
func (t *Tracker) eventSync() {
	// Everything previously persisted but no longer present is durably
	// deleted.
	for _, b := range t.bindings {
		if b.level > levelNone && !b.absent {
			if n := t.model.Get(b.key.parent); n == nil || n.Children[b.key.name] != b.ino {
				b.absent = true
			}
		}
	}
	t.model.Walk(func(path string, n *fstree.Node) {
		t.persistInode(n, levelFull)
		if path == "/" {
			return
		}
		key, err := t.keyOf(path)
		if err != nil {
			return
		}
		t.persistBinding(key, n.Ino)
	})
}

// persistNames pins every current name of inode n and applies the
// rename/drag rules.
func (t *Tracker) persistNames(n *fstree.Node) {
	for _, p := range t.model.PathsOf(n.Ino) {
		key, err := t.keyOf(p)
		if err != nil {
			continue
		}
		displaced := t.persistBinding(key, n.Ino)
		// Dragging: replacing a persisted binding of a still-alive inode
		// implies that inode's current name is persisted too.
		if displaced != nil {
			if j := t.model.Get(displaced.ino); j != nil {
				t.persistInode(j, levelFull)
				for _, jp := range t.model.PathsOf(j.Ino) {
					if jk, err := t.keyOf(jp); err == nil {
						t.persistBinding(jk, j.Ino)
					}
				}
			}
		}
	}

	// Rename persistence: stale persisted names of n are durably gone.
	for _, b := range t.bindings {
		if b.ino != n.Ino || !b.removed || b.absent || b.movedTo == nil {
			continue
		}
		b.absent = true
		// Drag the new occupant of the old name (W11 expectation).
		if parent := t.model.Get(b.key.parent); parent != nil {
			if newIno, ok := parent.Children[b.key.name]; ok && newIno != n.Ino {
				if occ := t.model.Get(newIno); occ != nil {
					t.persistInode(occ, levelFull)
					t.persistBinding(b.key, newIno)
				}
			}
		}
	}
}

func (t *Tracker) eventFsync(path string) error {
	n, err := t.model.Lookup(path)
	if err != nil {
		return err
	}
	if n.Kind == filesys.KindDir {
		t.eventFsyncDir(n)
		return nil
	}
	t.persistInode(n, levelFull)
	t.persistNames(n)
	if t.g.FsyncFilePersistsAncestorRenames {
		t.persistAncestorRenames(n)
	}
	return nil
}

// persistAncestorRenames pins renames of the file's ancestor directories
// (F2FS strict-mode semantics, Table 5 #10).
func (t *Tracker) persistAncestorRenames(n *fstree.Node) {
	for _, p := range t.model.PathsOf(n.Ino) {
		comps := fstree.SplitPath(p)
		cur := t.model.Root()
		for _, comp := range comps[:len(comps)-1] {
			childIno, ok := cur.Children[comp]
			if !ok {
				break
			}
			child := t.model.Get(childIno)
			if child == nil || child.Kind != filesys.KindDir {
				break
			}
			// Stale persisted names of this ancestor are durably gone.
			for _, b := range t.bindings {
				if b.ino == childIno && b.removed && !b.absent && b.movedTo != nil {
					b.absent = true
				}
			}
			t.persistBinding(dentryKey{cur.Ino, comp}, childIno)
			if fe := t.fileOf(childIno); fe.level < levelExists {
				fe.level = levelExists
			}
			cur = child
		}
	}
}

func (t *Tracker) eventFsyncDir(d *fstree.Node) {
	t.persistInode(d, levelFull)

	// The directory's own rename is persisted.
	if d.Ino != fstree.RootIno {
		t.persistNames(d)
	}

	// Renames out of this directory's subtree are persisted (W20). This
	// must run before the removals pass so the moved binding's new
	// location is pinned rather than merely marked gone.
	t.persistSubtreeRenames(d)

	// Removals from this directory are durable.
	for _, b := range t.bindings {
		if b.key.parent == d.Ino && b.level > levelNone && !b.absent &&
			(b.removed || d.Children[b.key.name] != b.ino) {
			b.absent = true
		}
	}
	// Current entries, and the existence of the inodes they name, are
	// durable.
	for _, name := range sortedNames(d.Children) {
		childIno := d.Children[name]
		child := t.model.Get(childIno)
		if child == nil {
			continue
		}
		t.persistBinding(dentryKey{d.Ino, name}, childIno)
		switch child.Kind {
		case filesys.KindSymlink, filesys.KindFifo:
			// A symlink's target is immutable: directory fsync must
			// persist it whole (the W10 expectation).
			t.persistInode(child, levelFull)
		case filesys.KindDir:
			fe := t.fileOf(childIno)
			wasNew := fe.level == levelNone
			if fe.level < levelExists {
				fe.level = levelExists
			}
			// Only directories that were never persisted are logged
			// recursively (the N3 expectation); committed subdirectories
			// already have their entries on disk.
			if wasNew {
				t.persistDirEntriesRecursive(child)
			}
		default:
			if fe := t.fileOf(childIno); fe.level < levelExists {
				fe.level = levelExists
			}
		}
	}
}

// persistSubtreeRenames pins renames whose source lies under d.
func (t *Tracker) persistSubtreeRenames(d *fstree.Node) {
	for _, b := range t.bindings {
		if !b.removed || b.absent || b.movedTo == nil || b.level == levelNone {
			continue
		}
		if !t.inSubtree(d, b.key.parent) {
			continue
		}
		ino := b.ino
		b.absent = true
		if n := t.model.Get(ino); n != nil {
			// Pin the current location of the moved inode.
			for _, p := range t.model.PathsOf(ino) {
				if k, err := t.keyOf(p); err == nil {
					t.persistBinding(k, ino)
				}
			}
			if fe := t.fileOf(ino); fe.level < levelExists {
				fe.level = levelExists
			}
		}
	}
}

func (t *Tracker) persistDirEntriesRecursive(d *fstree.Node) {
	for _, name := range sortedNames(d.Children) {
		childIno := d.Children[name]
		child := t.model.Get(childIno)
		if child == nil {
			continue
		}
		t.persistBinding(dentryKey{d.Ino, name}, childIno)
		fe := t.fileOf(childIno)
		wasNew := fe.level == levelNone
		if fe.level < levelExists {
			fe.level = levelExists
		}
		if child.Kind == filesys.KindDir && wasNew {
			t.persistDirEntriesRecursive(child)
		}
	}
}

// inSubtree reports whether dir ino is d or inside d's subtree.
func (t *Tracker) inSubtree(d *fstree.Node, ino uint64) bool {
	if d.Ino == ino {
		return true
	}
	for _, childIno := range d.Children {
		child := t.model.Get(childIno)
		if child != nil && child.Kind == filesys.KindDir && t.inSubtree(child, ino) {
			return true
		}
	}
	return false
}

func (t *Tracker) eventFdatasync(path string) error {
	n, err := t.model.Lookup(path)
	if err != nil {
		return err
	}
	if n.Kind == filesys.KindDir {
		t.eventFsyncDir(n)
		return nil
	}
	if !t.g.FdatasyncPersistsDentry {
		// Without the dentry guarantee, fdatasync on a file that was never
		// persisted pins nothing that a checker could reach.
		if fe, ok := t.files[n.Ino]; !ok || fe.level == levelNone {
			if !t.hasPersistedBinding(n.Ino) {
				return nil
			}
		}
		t.persistInode(n, levelData)
		return nil
	}
	t.persistInode(n, levelData)
	t.persistNames(n)
	return nil
}

func (t *Tracker) hasPersistedBinding(ino uint64) bool {
	for _, b := range t.bindings {
		if b.ino == ino && b.level > levelNone && !b.absent && !b.removed {
			return true
		}
	}
	return false
}

func (t *Tracker) eventMSync(path string, off, length int64) error {
	n, err := t.model.Lookup(path)
	if err != nil {
		return err
	}
	if n.Kind != filesys.KindRegular {
		return fmt.Errorf("tracker: msync on non-file %q", path)
	}
	end := off + length
	if end > n.Size() {
		end = n.Size()
	}
	if end > off {
		t.trimRanges(n.Ino, off, end)
		fe := t.fileOf(n.Ino)
		fe.ranges = append(fe.ranges, rangeExpect{
			off:  off,
			data: n.Data.Slice(off, end),
		})
		if fe.level < levelExists {
			fe.level = levelExists
		}
	}
	t.persistNames(n)
	return nil
}

// eventDWrite pins the directly-written range and a minimum size (the
// i_disksize the completed direct IO implies).
func (t *Tracker) eventDWrite(n *fstree.Node, off, end int64) {
	fe := t.fileOf(n.Ino)
	if end > n.Size() {
		end = n.Size()
	}
	if end > off {
		fe.ranges = append(fe.ranges, rangeExpect{
			off:  off,
			data: n.Data.Slice(off, end),
		})
	}
	// The write is only durable if the file itself is reachable.
	if t.hasPersistedBinding(n.Ino) || fe.level > levelNone {
		if end > fe.minSize {
			fe.minSize = end
		}
		if fe.level < levelExists {
			fe.level = levelExists
		}
	}
}

// ---- expectation snapshots --------------------------------------------------

// Expectation is an immutable snapshot of the tracker at one checkpoint:
// the oracle CrashMonkey captures after each persistence point (§5.1).
type Expectation struct {
	g        filesys.Guarantees
	files    map[uint64]*fileExpect
	bindings []*dentryExpect
	model    *fstree.Tree

	// fp caches Fingerprint (representative-state pruning).
	fpOnce sync.Once
	fp     uint64
}

// Snapshot copies the tracker state the tracker goes on to mutate: the
// per-inode and per-binding records and the model tree. The immutable parts
// — fileStates, pinned range bytes and file contents — are shared.
func (t *Tracker) Snapshot() *Expectation {
	e := &Expectation{
		g:     t.g,
		files: make(map[uint64]*fileExpect, len(t.files)),
		model: t.model.Clone(),
	}
	for ino, fe := range t.files {
		cp := *fe
		cp.accepted = slices.Clone(fe.accepted)
		cp.ranges = slices.Clone(fe.ranges)
		e.files[ino] = &cp
	}
	for _, b := range t.bindings {
		cp := *b
		if b.movedTo != nil {
			mt := *b.movedTo
			cp.movedTo = &mt
		}
		e.bindings = append(e.bindings, &cp)
	}
	return e
}

func sortedNames(children map[string]uint64) []string {
	names := make([]string, 0, len(children))
	for name := range children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func statesEqual(a, b *fileState, level persistLevel, checkNlink bool) (bool, string) {
	if a.kind != b.kind {
		return false, fmt.Sprintf("kind %v != %v", b.kind, a.kind)
	}
	if a.kind == filesys.KindSymlink {
		if a.target != b.target {
			return false, fmt.Sprintf("symlink target %q != %q", b.target, a.target)
		}
		return true, ""
	}
	if a.kind == filesys.KindDir {
		return true, "" // directory state is checked via its entries
	}
	if level >= levelData {
		if a.size != b.size {
			return false, fmt.Sprintf("size %d != %d", b.size, a.size)
		}
		if !a.data.Equal(b.data) {
			return false, "data mismatch"
		}
		if a.sectors != b.sectors {
			return false, fmt.Sprintf("sectors %d != %d", b.sectors, a.sectors)
		}
	}
	if level >= levelFull {
		if !xattrsEqual(a.xattrs, b.xattrs) {
			return false, "xattrs mismatch"
		}
		if checkNlink && a.nlink != b.nlink {
			return false, fmt.Sprintf("nlink %d != %d", b.nlink, a.nlink)
		}
	}
	return true, ""
}

func xattrsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}
