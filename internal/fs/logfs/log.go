package logfs

import (
	"fmt"
	"sort"

	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fstree"
)

// itemKind discriminates fsync-log records.
type itemKind byte

const (
	// itInode materializes or updates an inode (metadata, and data unless
	// metaOnly). Directory children are never carried here; the namespace
	// travels as dentry records.
	itInode itemKind = iota
	// itInodeData patches a byte range of an inode (ranged msync,
	// direct IO).
	itInodeData
	// itDentryAdd links (dir, name) -> child.
	itDentryAdd
	// itDentryDel removes (dir, name) which must reference child. When
	// destroy is set the child's subtree is deleted too (the buggy W8
	// emission).
	itDentryDel
)

type logItem struct {
	kind     itemKind
	node     *fstree.Node // itInode
	metaOnly bool         // itInode: do not replace file data
	ino      uint64       // itInodeData
	off      int64        // itInodeData
	data     []byte       // itInodeData
	dir      uint64       // dentry records
	name     string       // dentry records
	child    uint64       // dentry records
	destroy  bool         // itDentryDel
}

func encodeBatch(e *codec.Encoder, items []logItem) {
	e.Int(len(items))
	for _, it := range items {
		e.Byte(byte(it.kind))
		switch it.kind {
		case itInode:
			fstree.EncodeNode(e, it.node, false)
			e.Bool(it.metaOnly)
		case itInodeData:
			e.Uint64(it.ino)
			e.Int64(it.off)
			e.Bytes64(it.data)
		case itDentryAdd:
			e.Uint64(it.dir)
			e.String(it.name)
			e.Uint64(it.child)
		case itDentryDel:
			e.Uint64(it.dir)
			e.String(it.name)
			e.Uint64(it.child)
			e.Bool(it.destroy)
		}
	}
}

func decodeBatch(d *codec.Decoder) (items []logItem, err error) {
	n := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("logfs: implausible batch size: %w", filesys.ErrCorrupted)
	}
	// Every item takes at least one byte, so the input left bounds the
	// capacity even when n is corrupt.
	items = make([]logItem, 0, min(n, d.Remaining()))
	for i := 0; i < n; i++ {
		var it logItem
		it.kind = itemKind(d.Byte())
		switch it.kind {
		case itInode:
			node, err := fstree.DecodeNode(d)
			if err != nil {
				return nil, err
			}
			it.node = node
			it.metaOnly = d.Bool()
		case itInodeData:
			it.ino = d.Uint64()
			it.off = d.Int64()
			it.data = d.Bytes64View()
		case itDentryAdd:
			it.dir = d.Uint64()
			it.name = d.String()
			it.child = d.Uint64()
		case itDentryDel:
			it.dir = d.Uint64()
			it.name = d.String()
			it.child = d.Uint64()
			it.destroy = d.Bool()
		default:
			return nil, fmt.Errorf("logfs: unknown log item kind %d: %w", it.kind, filesys.ErrCorrupted)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		items = append(items, it)
	}
	return items, nil
}

// nameRef is one (parent, name) reference to an inode, with the full path.
type nameRef struct {
	parent uint64
	name   string
	path   string
}

func refsOf(t *fstree.Tree, ino uint64) []nameRef {
	var out []nameRef
	for _, p := range t.PathsOf(ino) {
		if p == "/" {
			continue
		}
		parent, name, err := parentIn(t, p)
		if err != nil {
			continue
		}
		out = append(out, nameRef{parent: parent.Ino, name: name, path: p})
	}
	return out
}

// batchBuilder accumulates the log items for one fsync.
type batchBuilder struct {
	m           *mounted
	items       []logItem
	inodeLogged map[uint64]bool    // inodes materialized in this batch
	fileLogged  map[uint64]bool    // inodes fully logged via logFile
	adds        []addRec           // emitted adds, for post-commit tracking
	dels        []pathKey          // emitted dels
	oldNameFor  map[uint64]pathKey // N2: ancestors to materialize at stale names
}

type addRec struct {
	key   pathKey
	child uint64
}

func (m *mounted) newBatch() *batchBuilder {
	return &batchBuilder{
		m:           m,
		inodeLogged: make(map[uint64]bool),
		fileLogged:  make(map[uint64]bool),
		oldNameFor:  make(map[uint64]pathKey),
	}
}

func (b *batchBuilder) has(id string) bool { return b.m.fs.Has(id) }

func (b *batchBuilder) emitInode(n *fstree.Node, metaOnly bool) {
	b.items = append(b.items, logItem{kind: itInode, node: n, metaOnly: metaOnly})
	b.inodeLogged[n.Ino] = true
	b.m.trackOf(n.Ino).loggedInTrans = true
}

func (b *batchBuilder) emitAdd(dir uint64, name string, child uint64) {
	b.items = append(b.items, logItem{kind: itDentryAdd, dir: dir, name: name, child: child})
	b.adds = append(b.adds, addRec{key: pathKey{dir, name}, child: child})
}

func (b *batchBuilder) emitDel(dir uint64, name string, child uint64, destroy bool) {
	b.items = append(b.items, logItem{kind: itDentryDel, dir: dir, name: name, child: child, destroy: destroy})
	b.dels = append(b.dels, pathKey{dir, name})
}

// delWouldConflict reports whether deleting (key -> ino) would trip replay:
// the log (this batch or an earlier one) has already re-bound the name to a
// different inode, so the rebinding itself persists the removal.
func (b *batchBuilder) delWouldConflict(key pathKey, ino uint64) bool {
	for _, a := range b.adds {
		if a.key == key && a.child != ino {
			return true
		}
	}
	if logged, ok := b.m.loggedDentries[key]; ok && logged != ino {
		return true
	}
	return false
}

// logAndFlush is the fsync entry point: build the batch for node n (ranged
// non-nil for msync/direct IO), write it to the log area and flush.
func (m *mounted) logAndFlush(n *fstree.Node, ranged *punchRec) error {
	b := m.newBatch()
	if n.Kind == filesys.KindDir {
		b.logDir(n)
	} else {
		b.logFile(n, ranged)
	}
	if len(b.items) == 0 {
		return nil // nothing dirty: fsync is a no-op
	}
	if err := m.AppendRecord(func(e *codec.Encoder) { encodeBatch(e, b.items) }); err != nil {
		return err
	}

	// Post-write bookkeeping: remember what reached the log.
	for _, a := range b.adds {
		m.loggedDentries[a.key] = a.child
		set := m.loggedNames[a.child]
		if set == nil {
			set = make(map[pathKey]bool)
			m.loggedNames[a.child] = set
		}
		set[a.key] = true
	}
	for _, dk := range b.dels {
		m.loggedDels[dk] = true
	}
	// Final per-name outcome, in item order (the log is ordered; the last
	// add or del for a name wins at replay).
	for _, it := range b.items {
		switch it.kind {
		case itDentryAdd:
			m.logState[pathKey{it.dir, it.name}] = boundState{ino: it.child, present: true}
		case itDentryDel:
			m.logState[pathKey{it.dir, it.name}] = boundState{}
		case itInode, itInodeData:
			// Inode payloads bind no names; replay applies them separately.
		}
	}
	tr := m.trackOf(n.Ino)
	if ranged == nil {
		tr.dirty = false
		tr.punches = nil
	}
	tr.loggedInTrans = true
	return nil
}

// ---- file fsync ---------------------------------------------------------

// logFile logs a regular file, symlink, or fifo: its inode item plus dentry
// records for its names. This is where most of the studied btrfs fsync bugs
// live; each conditional cites its appendix workload.
func (b *batchBuilder) logFile(x *fstree.Node, ranged *punchRec) {
	m := b.m
	if ranged == nil {
		// Guard against re-entry: directory fsync, replacement dragging,
		// and subtree departures may all reach the same inode.
		if b.fileLogged[x.Ino] {
			return
		}
		b.fileLogged[x.Ino] = true
	}
	tr := m.trackOf(x.Ino)
	curRefs := refsOf(m.Mem, x.Ino)
	comRefs := refsOf(m.committed, x.Ino)

	committedAt := make(map[pathKey]bool, len(comRefs))
	for _, r := range comRefs {
		committedAt[pathKey{r.parent, r.name}] = true
	}
	currentAt := make(map[pathKey]bool, len(curRefs))
	for _, r := range curRefs {
		currentAt[pathKey{r.parent, r.name}] = true
	}

	// Adds: current names not already durable via the untouched committed
	// tree. Names the log has touched are (re-)logged — btrfs re-logs
	// inode refs, which is what lets the accounting-replay bugs
	// double-count.
	var addRefs []nameRef
	for _, r := range curRefs {
		key := pathKey{r.parent, r.name}
		if _, touched := m.logState[key]; !touched && committedAt[key] {
			continue
		}
		addRefs = append(addRefs, r)
	}
	// Dels: names the durable state still binds to this inode that the
	// inode no longer has (the log, not only the committed tree, may hold
	// the stale name).
	var delRefs []nameRef
	for _, r := range comRefs {
		key := pathKey{r.parent, r.name}
		if currentAt[key] {
			continue
		}
		if ino, ok := m.durableBinding(key); !ok || ino != x.Ino {
			continue // already gone or re-bound durably
		}
		delRefs = append(delRefs, r)
	}
	loggedSet := m.loggedNames[x.Ino]
	staleLogged := make([]pathKey, 0, len(loggedSet))
	for key := range loggedSet {
		if currentAt[key] || committedAt[key] {
			continue
		}
		if ino, ok := m.durableBinding(key); !ok || ino != x.Ino {
			continue
		}
		staleLogged = append(staleLogged, key)
	}
	sort.Slice(staleLogged, func(i, j int) bool {
		if staleLogged[i].parent != staleLogged[j].parent {
			return staleLogged[i].parent < staleLogged[j].parent
		}
		return staleLogged[i].name < staleLogged[j].name
	})
	for _, key := range staleLogged {
		delRefs = append(delRefs, nameRef{parent: key.parent, name: key.name})
	}

	// BUG W14: a ranged msync on an inode already logged this transaction
	// short-circuits; the second mmap write never reaches the log.
	if ranged != nil && tr.loggedInTrans && b.has("btrfs-ranged-msync-second-lost") {
		return
	}

	// Clean-inode fast path: nothing dirty and every name already durable
	// (committed or logged) makes fsync a no-op.
	if ranged == nil && !tr.dirty {
		pending := len(delRefs) > 0
		for _, r := range addRefs {
			if loggedSet == nil || !loggedSet[pathKey{r.parent, r.name}] {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
	}

	// BUG W3 (appendix 9.1 #3, Figure-mate of generic/479): the special-file
	// logging path records a stale link count while logging both names;
	// replay detects more references than the inode admits and fails,
	// leaving the file system unmountable.
	if x.Kind == filesys.KindFifo && tr.renamedFrom != nil && tr.newLinkSinceCommit &&
		b.has("btrfs-special-file-link-replay-fail") {
		stale := x.Clone()
		if com := m.committed.Get(x.Ino); com != nil {
			stale.Nlink = com.Nlink
		} else {
			stale.Nlink = 1
		}
		b.emitInode(stale, false)
		for _, r := range curRefs {
			b.ensureAncestors(r.path)
			b.emitAdd(r.parent, r.name, x.Ino)
		}
		return
	}

	// BUG W22: fsync of a renamed file does not log the rename at all; the
	// file stays at its old name after replay.
	if tr.renamedFrom != nil && b.has("btrfs-fsync-renamed-file-not-logged") {
		delRefs = nil
		addRefs = nil
	}

	// BUG N2: when both the file and one of its ancestor directories were
	// renamed in this transaction, the log records the ancestor under its
	// pre-rename name and loses the deletion of the file's old location:
	// after replay the file appears in both directories.
	if tr.renamedFrom != nil && b.has("btrfs-rename-atomicity-both-locations") {
		if anc, old := b.renamedAncestor(curRefs); anc != 0 {
			b.oldNameFor[anc] = old
			delRefs = nil
		}
	}

	// BUG N7 (Table 5 #7): fsync of a regular file logs only the name the
	// inode was created with, losing its other hard links. (Special files
	// and renamed inodes take the slow logging path and are unaffected.)
	if len(addRefs) > 1 && x.Kind == filesys.KindRegular && tr.renamedFrom == nil &&
		b.has("btrfs-fsync-logs-single-name") {
		addRefs = b.keepOriginOnly(x, addRefs)
	}

	// BUG N5 (Table 5 #5): an inode already logged in this transaction
	// skips logging link-created names that have not been logged before.
	// A rename sets last_unlink_trans and forces the full path, so renamed
	// inodes are unaffected.
	if tr.loggedInTrans && tr.renamedFrom == nil &&
		b.has("btrfs-fsync-skips-new-name-already-logged") {
		logged := m.loggedNames[x.Ino]
		var kept []nameRef
		for _, r := range addRefs {
			if logged[pathKey{r.parent, r.name}] {
				kept = append(kept, r)
			}
		}
		addRefs = kept
	}

	// Inode item.
	skipInode := false
	// BUG W16: after adding a hard link, the inode's logged_trans field
	// satisfies the fsync fast path and the inode item (with its data) is
	// never written to the log; the file recovers with size 0.
	if tr.newLinkSinceCommit && b.has("btrfs-fsync-after-link-data-lost") {
		skipInode = true
	}
	if !skipInode {
		logged := b.buildInodeItem(x, tr)
		if ranged != nil {
			b.emitInode(logged, true)
			b.emitRangeData(x, ranged)
		} else {
			b.emitInode(logged, false)
		}
	} else if ranged != nil {
		b.emitRangeData(x, ranged)
	}

	// Dentry adds (with replacement handling).
	for _, r := range addRefs {
		b.ensureAncestors(r.path)
		b.handleReplacement(r.parent, r.name, x)
		b.emitAdd(r.parent, r.name, x.Ino)

		// BUG W5 (Figure 1): the unlink+link combination makes the log
		// carry a second, stale deletion of the reused name; replay tries
		// to unlink it twice and fails, leaving the FS unmountable.
		if b.has("btrfs-link-unlink-replay-fail") {
			if j, ok := m.delsByUnlink[pathKey{r.parent, r.name}]; ok && j != x.Ino {
				if com := m.committed.Get(r.parent); com != nil && com.Children[r.name] == j {
					b.emitDel(r.parent, r.name, j, false)
				}
			}
		}
	}

	// BUG W9: logging the inode drags in its parent directory's other new
	// entries — without the matching deletions at their old locations — so
	// entries renamed between directories persist in both.
	if b.has("btrfs-moved-entries-persist-in-both") {
		parents := map[uint64]bool{}
		for _, r := range addRefs {
			parents[r.parent] = true
		}
		parentInos := make([]uint64, 0, len(parents))
		for p := range parents {
			parentInos = append(parentInos, p)
		}
		sort.Slice(parentInos, func(i, j int) bool { return parentInos[i] < parentInos[j] })
		for _, p := range parentInos {
			memP := m.Mem.Get(p)
			if memP == nil {
				continue
			}
			comP := m.committed.Get(p)
			names := make([]string, 0, len(memP.Children))
			for name := range memP.Children {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				ino := memP.Children[name]
				if ino == x.Ino {
					continue
				}
				if comP != nil && comP.Children[name] == ino {
					continue
				}
				if m.committed.Get(ino) == nil {
					continue // new inode: would dangle at replay anyway
				}
				b.emitAdd(p, name, ino)
			}
		}
	}

	// Dentry dels (the inode's own removed/renamed-away names).
	for _, r := range delRefs {
		if b.delWouldConflict(pathKey{r.parent, r.name}, x.Ino) {
			continue // the name was re-bound in the log; removal is implicit
		}
		b.emitDel(r.parent, r.name, x.Ino, false)

		// Dragging the replacement occupant of the old name, which the
		// oracle demands of every file system. BUG W11 skips it, so a
		// file created over the renamed-away name is lost.
		if memParent := m.Mem.Get(r.parent); memParent != nil {
			if newIno, ok := memParent.Children[r.name]; ok && newIno != x.Ino {
				if !b.has("btrfs-rename-fsync-loses-new-occupant") {
					b.dragInode(newIno)
				}
			}
		}

		// BUG W7: logging a deletion in directory B makes replay process
		// B's other vanished entries as deletions too, destroying files
		// that were merely renamed out of B.
		if b.has("btrfs-replay-drops-renamed-from-dir") {
			b.emitCollateralDels(r.parent, x.Ino)
		}
	}
}

// buildInodeItem produces the node image written to the log, applying the
// content-level logging bugs.
func (b *batchBuilder) buildInodeItem(x *fstree.Node, tr *inodeTrack) *fstree.Node {
	m := b.m
	logged := x.Clone()
	logged.Children = nil
	com := m.committed.Get(x.Ino)

	// BUG W23: for an inode with multiple hard links, the fast fsync path
	// logs extents only up to the last committed size; appended data is
	// lost.
	if b.has("btrfs-append-after-link-lost") &&
		!tr.newLinkSinceCommit && x.Nlink > 1 && com != nil && x.Size() > com.Size() {
		cSize := com.Size()
		logged.Resize(cSize)
		logged.Extents = clipExtents(x.Extents, alignUp(cSize))
	}

	// BUG N8 (Table 5 #8): extents beyond EOF (FALLOC_FL_KEEP_SIZE) are not
	// logged; allocated blocks disappear after a crash.
	if b.has("btrfs-fsync-drops-beyond-eof-extents") {
		logged.Extents = clipExtents(logged.Extents, alignUp(logged.Size()))
	}

	// BUG W12: with overlapping punched holes, only the first hole since
	// the last commit makes it into the logged extent map.
	if b.has("btrfs-overlapping-punch-holes-lost") && len(tr.punches) > 1 && com != nil {
		tmp := &fstree.Node{Extents: com.Extents}
		tmp.DeallocRange(tr.punches[0].off, tr.punches[0].end)
		logged.Extents = tmp.Extents
	}
	return logged
}

func (b *batchBuilder) emitRangeData(x *fstree.Node, r *punchRec) {
	off, end := r.off, r.end
	if off < 0 {
		off = 0
	}
	if end > x.Size() {
		end = x.Size()
	}
	if end <= off {
		return
	}
	b.items = append(b.items, logItem{
		kind: itInodeData,
		ino:  x.Ino,
		off:  off,
		data: x.Data[off:end:end],
	})
}

// keepOriginOnly implements the N7 restriction: keep the creation name when
// it is still current, otherwise the first name in sorted order.
func (b *batchBuilder) keepOriginOnly(x *fstree.Node, refs []nameRef) []nameRef {
	tr := b.m.trackOf(x.Ino)
	if tr.hasOrigin {
		for _, r := range refs {
			if r.parent == tr.origin.parent && r.name == tr.origin.name {
				return []nameRef{r}
			}
		}
	}
	sorted := append([]nameRef(nil), refs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].path < sorted[j].path })
	return sorted[:1]
}

// renamedAncestor finds an ancestor directory of any current ref that was
// renamed this transaction, returning its ino and pre-rename name.
func (b *batchBuilder) renamedAncestor(refs []nameRef) (uint64, pathKey) {
	for _, r := range refs {
		comps := fstree.SplitPath(r.path)
		n := b.m.Mem.Root()
		for _, comp := range comps[:len(comps)-1] {
			childIno, ok := n.Children[comp]
			if !ok {
				break
			}
			child := b.m.Mem.Get(childIno)
			if child == nil || child.Kind != filesys.KindDir {
				break
			}
			if tr, ok := b.m.track[childIno]; ok && tr.renamedFrom != nil {
				return childIno, *tr.renamedFrom
			}
			n = child
		}
	}
	return 0, pathKey{}
}

// ensureAncestors materializes every directory on path's parent chain that
// does not exist in the committed tree, so replay can link the new entry.
func (b *batchBuilder) ensureAncestors(path string) {
	comps := fstree.SplitPath(path)
	if len(comps) == 0 {
		return
	}
	m := b.m
	parent := m.Mem.Root()
	prefix := ""
	for _, comp := range comps[:len(comps)-1] {
		childIno, ok := parent.Children[comp]
		if !ok {
			return
		}
		child := m.Mem.Get(childIno)
		prefix += "/" + comp
		if child == nil || child.Kind != filesys.KindDir {
			return
		}
		if m.committed.Get(childIno) == nil && !b.inodeLogged[childIno] {
			dirItem := child.Clone()
			dirItem.Children = nil
			b.emitInode(dirItem, false)
			key := pathKey{parent.Ino, comp}
			// BUG N2: a renamed ancestor is recorded under its stale name.
			if old, ok := b.oldNameFor[childIno]; ok {
				key = old
			} else {
				// Materializing over a durably bound name displaces its
				// occupant; drag it like any other replacement. Names an
				// earlier batch logged for this directory are stale now.
				b.handleReplacement(key.parent, key.name, child)
				b.emitStaleLoggedDels(childIno, key)
			}
			b.emitAdd(key.parent, key.name, childIno)
		}
		parent = child
	}
}

// handleReplacement deals with logging an entry over a name whose committed
// occupant is a different inode (name reuse after rename/unlink).
func (b *batchBuilder) handleReplacement(dir uint64, name string, newNode *fstree.Node) {
	m := b.m
	// The displaced occupant is whatever the durable state (committed tree
	// overridden by the log written so far) binds the name to.
	j, ok := m.durableBinding(pathKey{dir, name})
	if !ok || j == newNode.Ino {
		return
	}
	jNode := m.Mem.Get(j)
	if jNode == nil {
		// The old occupant is dead; the replacing add persists that. If
		// it was a committed directory, replay will sweep its subtree, so
		// any of its committed children still alive elsewhere must be
		// dragged to their current names or they are lost with it.
		if comJ := m.committed.Get(j); comJ != nil && comJ.Kind == filesys.KindDir {
			childNames := make([]string, 0, len(comJ.Children))
			for n := range comJ.Children {
				childNames = append(childNames, n)
			}
			sort.Strings(childNames)
			for _, n := range childNames {
				childIno := comJ.Children[n]
				alive := m.Mem.Get(childIno)
				if alive == nil {
					continue
				}
				if alive.Kind != filesys.KindDir {
					b.logFile(alive, nil)
					continue
				}
				for _, r := range refsOf(m.Mem, childIno) {
					b.ensureAncestors(r.path)
					b.emitAdd(r.parent, r.name, childIno)
				}
			}
		}
		return
	}
	// The old occupant was renamed away and is still alive: it must be
	// dragged into the log at its current name, or replay will orphan it.
	if jNode.Kind == filesys.KindDir && b.has("btrfs-new-dir-replay-drops-renamed-subtree") {
		// BUG W8: replay destroys the renamed directory's subtree instead
		// of preserving it at its new name.
		b.emitDel(dir, name, j, true)
		return
	}
	if jNode.Kind != filesys.KindDir && b.has("btrfs-rename-old-file-lost-on-new-fsync") {
		// BUG W1: the renamed-away file is not dragged; replay orphans it.
		return
	}
	b.dragInode(j)
}

// dragInode logs inode j (full) together with adds for its current names.
func (b *batchBuilder) dragInode(j uint64) {
	m := b.m
	if b.inodeLogged[j] {
		return
	}
	jNode := m.Mem.Get(j)
	if jNode == nil {
		return
	}
	item := jNode.Clone()
	item.Children = nil
	b.emitInode(item, false)
	for _, r := range refsOf(m.Mem, j) {
		if com := m.committed.Get(r.parent); com != nil && com.Children[r.name] == j {
			continue // already durable
		}
		b.ensureAncestors(r.path)
		b.emitAdd(r.parent, r.name, j)
	}
}

// emitCollateralDels implements the buggy W7 emission: every entry that
// left directory dir since the last commit (other than the fsynced inode)
// is logged as a plain deletion, losing files renamed out of dir.
func (b *batchBuilder) emitCollateralDels(dir uint64, fsyncedIno uint64) {
	m := b.m
	com := m.committed.Get(dir)
	memDir := m.Mem.Get(dir)
	if com == nil {
		return
	}
	names := make([]string, 0, len(com.Children))
	for name := range com.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ino := com.Children[name]
		if ino == fsyncedIno {
			continue
		}
		if memDir != nil && memDir.Children[name] == ino {
			continue // entry unchanged
		}
		if m.Mem.Get(ino) == nil {
			continue // genuinely deleted; its unlink may be logged legitimately
		}
		if m.loggedDels[pathKey{dir, name}] {
			continue
		}
		b.emitDel(dir, name, ino, false)
	}
}

// ---- directory fsync ----------------------------------------------------

// logDir logs a directory: its own position, its entry diff against the
// committed tree, and (per btrfs's guarantees) renames out of its subtree.
func (b *batchBuilder) logDir(d *fstree.Node) {
	m := b.m
	curRefs := refsOf(m.Mem, d.Ino)
	comNode := m.committed.Get(d.Ino)

	// Own position.
	if d.Ino != fstree.RootIno {
		switch {
		case comNode == nil:
			// New directory: materialize it (and its ancestors), and
			// delete any stale name an earlier batch logged it under
			// (a rename between two fsyncs of an uncommitted dir).
			if len(curRefs) == 1 {
				b.ensureAncestors(curRefs[0].path)
				b.emitStaleLoggedDels(d.Ino, pathKey{curRefs[0].parent, curRefs[0].name})
				item := d.Clone()
				item.Children = nil
				b.emitInode(item, false)
				b.handleReplacement(curRefs[0].parent, curRefs[0].name, d)
				b.emitAdd(curRefs[0].parent, curRefs[0].name, d.Ino)
			}
		default:
			comRefs := refsOf(m.committed, d.Ino)
			if len(curRefs) == 1 && len(comRefs) == 1 &&
				(curRefs[0].parent != comRefs[0].parent || curRefs[0].name != comRefs[0].name) {
				// The directory itself was renamed since the last commit.
				// BUG N4 (Table 5 #4): fsync of the renamed directory does
				// not log the rename.
				if !b.has("btrfs-fsync-renamed-dir-not-logged") {
					b.ensureAncestors(curRefs[0].path)
					b.emitDel(comRefs[0].parent, comRefs[0].name, d.Ino, false)
					b.emitStaleLoggedDels(d.Ino, pathKey{curRefs[0].parent, curRefs[0].name})
					b.handleReplacement(curRefs[0].parent, curRefs[0].name, d)
					b.emitAdd(curRefs[0].parent, curRefs[0].name, d.Ino)
					// Persisting the rename durably frees the old name;
					// its new occupant must be dragged or replay drops it.
					if oldParent := m.Mem.Get(comRefs[0].parent); oldParent != nil {
						if newIno, ok := oldParent.Children[comRefs[0].name]; ok && newIno != d.Ino {
							if occ := m.Mem.Get(newIno); occ != nil {
								if occ.Kind == filesys.KindDir {
									b.logSubdirRecursive(comRefs[0].parent, comRefs[0].name, occ)
								} else {
									b.logFile(occ, nil)
								}
							}
						}
					}
				}
			}
		}
	}

	// Entry diff.
	var comChildren map[string]uint64
	if comNode != nil {
		comChildren = comNode.Children
	}
	names := make([]string, 0, len(d.Children))
	for name := range d.Children {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		c := d.Children[name]
		if durable, ok := m.durableBinding(pathKey{d.Ino, name}); ok && durable == c {
			continue // entry already durable
		}
		child := m.Mem.Get(c)
		if child == nil {
			continue
		}

		// BUG N1 (Table 5 #1): the name was logged earlier this
		// transaction for a different inode; the directory fsync logs the
		// deletion of the old entry but fails to materialize the new
		// inode, so replay drops the entry entirely and the file
		// disappears from both rename locations.
		if k, ok := m.loggedDentries[pathKey{d.Ino, name}]; ok && k != c &&
			b.has("btrfs-rename-atomicity-target-lost") {
			b.emitDel(d.Ino, name, k, false)
			b.emitAdd(d.Ino, name, c)
			continue
		}

		b.handleReplacement(d.Ino, name, child)

		switch child.Kind {
		case filesys.KindRegular:
			// BUG N6 (Table 5 #6): once the log tree already holds items
			// for this transaction (some inode was fsynced earlier), the
			// directory fsync skips entries whose inode has not itself
			// been logged.
			if !m.trackOf(c).loggedInTrans && m.anyLoggedInTrans() &&
				b.has("btrfs-dir-fsync-skips-unlogged-children") {
				continue
			}
			// Full logging: all the child's names plus deletions of its
			// stale names, so an entry renamed in from another directory
			// does not end up visible at both.
			b.logFile(child, nil)
		case filesys.KindSymlink:
			item := child.Clone()
			item.Children = nil
			// BUG W10: the symlink inode is logged before its target
			// payload is attached; replay produces an empty symlink.
			if b.has("btrfs-dir-fsync-empty-symlink") {
				item.Target = ""
			}
			b.emitInode(item, false)
			b.emitAdd(d.Ino, name, c)
		case filesys.KindFifo:
			b.logFile(child, nil)
		case filesys.KindDir:
			if m.committed.Get(c) != nil {
				// Committed directory renamed into d: it exists at replay.
				b.emitAdd(d.Ino, name, c)
				continue
			}
			// New subdirectory. BUG N3 (Table 5 #3): when the new subdir
			// holds names for inodes logged earlier in the transaction,
			// its items are not synced; the dangling entry is dropped at
			// replay and the whole directory is missing.
			if b.has("btrfs-dir-fsync-new-subdir-items-missing") && b.subdirRefsLogged(child) {
				b.emitAdd(d.Ino, name, c)
				continue
			}
			b.logSubdirRecursive(d.Ino, name, child)
		}
	}

	// Removed entries: names durable in the committed tree OR already
	// written to the log this transaction that the directory no longer
	// holds.
	removedNames := map[string]uint64{}
	for name, ino := range comChildren {
		removedNames[name] = ino
	}
	for key, ino := range m.loggedDentries {
		if key.parent == d.Ino {
			if _, ok := removedNames[key.name]; !ok {
				removedNames[key.name] = ino
			}
		}
	}
	delNames := make([]string, 0, len(removedNames))
	for name := range removedNames {
		delNames = append(delNames, name)
	}
	sort.Strings(delNames)
	for _, name := range delNames {
		if _, replaced := d.Children[name]; replaced {
			continue // replacement handled in the add path
		}
		b.logRemovedEntry(d, name, removedNames[name])
	}

	// Renames out of the subtree, which the oracle demands of every file
	// system. BUG W20 skips this walk, leaving renamed files at their old
	// location.
	if !b.has("btrfs-dir-fsync-subtree-rename-not-logged") {
		b.logSubtreeDepartures(d)
	}

	m.trackOf(d.Ino).loggedInTrans = true
	m.trackOf(d.Ino).dirty = false
}

// emitStaleLoggedDels deletes every name an earlier batch logged for ino
// that is no longer its current binding.
func (b *batchBuilder) emitStaleLoggedDels(ino uint64, current pathKey) {
	m := b.m
	keys := make([]pathKey, 0)
	for key := range m.loggedNames[ino] {
		if key != current && !m.loggedDels[key] {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].parent != keys[j].parent {
			return keys[i].parent < keys[j].parent
		}
		return keys[i].name < keys[j].name
	})
	for _, key := range keys {
		if parent := m.Mem.Get(key.parent); parent != nil && parent.Children[key.name] == ino {
			continue
		}
		if b.delWouldConflict(key, ino) {
			continue
		}
		b.emitDel(key.parent, key.name, ino, false)
	}
}

// materializeChild logs a full inode item for a directory-fsync child.
func (b *batchBuilder) materializeChild(child *fstree.Node) {
	if b.inodeLogged[child.Ino] {
		return
	}
	item := child.Clone()
	item.Children = nil
	b.emitInode(item, false)
}

// subdirRefsLogged reports whether any entry of dir references an inode
// already logged this transaction (the N3 trigger).
func (b *batchBuilder) subdirRefsLogged(dir *fstree.Node) bool {
	for _, ino := range dir.Children {
		if tr, ok := b.m.track[ino]; ok && tr.loggedInTrans {
			return true
		}
	}
	return false
}

// logSubdirRecursive materializes a new subdirectory with all its entries.
func (b *batchBuilder) logSubdirRecursive(parent uint64, name string, dir *fstree.Node) {
	m := b.m
	if !b.inodeLogged[dir.Ino] {
		item := dir.Clone()
		item.Children = nil
		b.emitInode(item, false)
	}
	b.emitAdd(parent, name, dir.Ino)
	names := make([]string, 0, len(dir.Children))
	for n := range dir.Children {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		child := m.Mem.Get(dir.Children[n])
		if child == nil {
			continue
		}
		if child.Kind == filesys.KindDir {
			if m.committed.Get(child.Ino) != nil {
				b.emitAdd(dir.Ino, n, child.Ino)
				continue
			}
			b.logSubdirRecursive(dir.Ino, n, child)
			continue
		}
		b.materializeChild(child)
		b.emitAdd(dir.Ino, n, child.Ino)
	}
}

// logRemovedEntry logs the departure of (dir, name). The deletion must
// reference the inode the log currently binds the name to (an earlier
// batch may have replaced the committed occupant), and an inode that
// merely moved elsewhere must be re-logged at its current name or replay
// orphans it.
func (b *batchBuilder) logRemovedEntry(dir *fstree.Node, name string, committedIno uint64) {
	m := b.m
	effIno, bound := m.durableBinding(pathKey{dir.Ino, name})
	if !bound {
		return // already durably gone
	}
	if _, ok := dir.Children[name]; ok {
		return // name re-used: the replacing add carries the change
	}
	_ = committedIno
	if alive := m.Mem.Get(effIno); alive != nil {
		if alive.Kind != filesys.KindDir {
			// Renamed out: log the inode's full current state (includes
			// the deletion of this stale name).
			b.logFile(alive, nil)
			return
		}
		// A directory renamed out: delete here, re-link there.
		b.emitDel(dir.Ino, name, effIno, false)
		for _, r := range refsOf(m.Mem, effIno) {
			b.ensureAncestors(r.path)
			b.emitAdd(r.parent, r.name, effIno)
		}
		return
	}
	b.emitDel(dir.Ino, name, effIno, false)
}

// logSubtreeDepartures walks the committed subtree of d and logs, for every
// entry that left a subtree directory since the commit, either the unlink
// (inode dead) or the full rename (inode alive elsewhere).
func (b *batchBuilder) logSubtreeDepartures(d *fstree.Node) {
	m := b.m
	comRoot := m.committed.Get(d.Ino)
	if comRoot == nil {
		return
	}
	// BFS over committed subtree directories, excluding d itself.
	queue := []uint64{}
	for _, ino := range comRoot.Children {
		if c := m.committed.Get(ino); c != nil && c.Kind == filesys.KindDir {
			queue = append(queue, ino)
		}
	}
	seen := map[uint64]bool{}
	for len(queue) > 0 {
		sIno := queue[0]
		queue = queue[1:]
		if seen[sIno] {
			continue
		}
		seen[sIno] = true
		s := m.committed.Get(sIno)
		memS := m.Mem.Get(sIno)
		names := make([]string, 0, len(s.Children))
		for name := range s.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ino := s.Children[name]
			if c := m.committed.Get(ino); c != nil && c.Kind == filesys.KindDir {
				queue = append(queue, ino)
			}
			if memS == nil {
				continue // directory itself gone; its own departure is logged elsewhere
			}
			if memS.Children[name] == ino {
				continue // still there
			}
			b.logRemovedEntry(memS, name, ino)
		}
	}
}

// clipExtents truncates the extent list at limit bytes.
func clipExtents(ext []filesys.Extent, limit int64) []filesys.Extent {
	var out []filesys.Extent
	for _, e := range ext {
		if e.Off >= limit {
			continue
		}
		if e.Off+e.Len > limit {
			out = append(out, filesys.Extent{Off: e.Off, Len: limit - e.Off})
			continue
		}
		out = append(out, e)
	}
	return out
}
