package logfs

import (
	"fmt"
	"maps"

	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// replayLog applies the fsync log batches onto the committed image. This is
// the mount-time recovery path; the replay-side bug mechanisms (directory
// accounting, xattr resurrection, inode-counter restoration, strict dentry
// deletion) live here. A returned error makes the file system unmountable.
func (f *FS) replayLog(img commitImage, batches [][]logItem) (commitImage, error) {
	committed := img.tree // the pristine pre-replay image, for bug triggers
	tree := img.tree.Clone()
	eb := cloneEB(img.entryBytes)

	var maxIno uint64
	for _, batch := range batches {
		for _, it := range batch {
			switch it.kind {
			case itInode:
				f.replayInode(tree, committed, it, &maxIno)
			case itInodeData:
				replayInodeData(tree, it)
			case itDentryAdd:
				f.replayDentryAdd(tree, committed, eb, it)
			case itDentryDel:
				if err := f.replayDentryDel(tree, committed, eb, it); err != nil {
					return commitImage{}, err
				}
			}
		}
	}

	// Special-file reference validation: more directory references than the
	// inode admits means the log was inconsistent (the W3 failure mode,
	// mirroring btrfs erroring out of log replay).
	if err := validateSpecialRefs(tree); err != nil {
		return commitImage{}, err
	}

	// Drop orphans left by replacements and entries naming deleted inodes,
	// with their entry bytes.
	tree.SweepUnreachable(func(dir uint64, name string) { eb[dir] -= entryWeight(name) },
		func(ino uint64) { delete(eb, ino) })
	diskfmt.RecountLinks(tree)

	// Advance the inode allocation counter past everything the log
	// materialized. BUG W6: the counter is left at its committed value, so
	// the next create collides with a replayed inode (-EEXIST).
	if !f.Has("btrfs-objectid-not-restored") {
		if maxIno >= tree.NextIno() {
			tree.SetNextIno(maxIno + 1)
		}
	}

	return commitImage{tree: tree, entryBytes: eb}, nil
}

// replayInode materializes or updates one inode from a log item.
func (f *FS) replayInode(tree, committed *fstree.Tree, it logItem, maxIno *uint64) {
	n := it.node
	if n.Ino > *maxIno {
		*maxIno = n.Ino
	}
	existing := tree.Get(n.Ino)
	if existing == nil {
		fresh := n.Clone()
		if fresh.Kind == filesys.KindDir && fresh.Children == nil {
			fresh.Children = make(map[string]uint64)
		}
		if it.metaOnly {
			fresh.Data = make([]byte, len(n.Data))
		}
		tree.AddOrphan(fresh, false)
		return
	}
	// Update in place, preserving directory contents.
	existing.Nlink = n.Nlink
	existing.Target = n.Target
	existing.Extents = n.Extents
	if existing.Kind != filesys.KindDir {
		if it.metaOnly {
			// Adjust length only; bytes come from itInodeData patches.
			existing.Resize(n.Size())
		} else {
			existing.Data = n.Data
		}
	}

	// Extended attributes: the log carries the full current set and replay
	// must replace the inode's set. BUG W18: replay merges instead, so
	// attributes removed before the fsync resurrect from the committed tree.
	if f.Has("btrfs-xattr-delete-replay") {
		merged := map[string][]byte{}
		if com := committed.Get(n.Ino); com != nil {
			maps.Copy(merged, com.Xattrs)
		}
		maps.Copy(merged, n.Xattrs)
		if len(merged) == 0 {
			existing.Xattrs = nil
		} else {
			existing.Xattrs = merged
		}
		return
	}
	if len(n.Xattrs) == 0 {
		existing.Xattrs = nil
	} else {
		existing.Xattrs = maps.Clone(n.Xattrs)
	}
}

func replayInodeData(tree *fstree.Tree, it logItem) {
	n := tree.Get(it.ino)
	if n == nil || n.Kind == filesys.KindDir {
		return
	}
	n.WriteAt(it.off, it.data)
}

// replayDentryAdd links (dir, name) -> child, maintaining the directory
// entry-byte accounting. Three studied bugs are accounting errors here.
// Link counts are not touched: the logged inode item is authoritative
// (which is exactly what the special-file validation checks) and counts
// are recomputed after replay.
func (f *FS) replayDentryAdd(tree, committed *fstree.Tree, eb map[uint64]int64, it logItem) {
	dir := tree.Get(it.dir)
	if dir == nil || dir.Kind != filesys.KindDir {
		return
	}
	if tree.Get(it.child) == nil {
		// Dangling add: the inode was never materialized in the log
		// (the buggy N1/N3 emissions). Replay drops the entry.
		return
	}
	// BUG W24: replaying an entry that arrived by rename (the inode is
	// committed under another name) counts both the dir item and the
	// inode ref, leaving the directory un-removable once emptied.
	renamedIn := false
	if f.Has("btrfs-rename-into-dir-accounting") && committed.Get(it.child) != nil {
		for _, r := range refsOf(committed, it.child) {
			if r.parent != it.dir || r.name != it.name {
				renamedIn = true
				break
			}
		}
	}

	existing, ok := dir.Children[it.name]
	switch {
	case ok && existing == it.child:
		// Idempotent re-add. BUG W21: the directory size is bumped again,
		// leaving the directory un-removable once emptied.
		if f.Has("btrfs-dir-fsync-size-accounting") {
			eb[dir.Ino] += entryWeight(it.name)
		}
	case ok:
		// Replacement of a different inode.
		dir.Children[it.name] = it.child
		if renamedIn {
			eb[dir.Ino] += entryWeight(it.name)
		}
	default:
		dir.Children[it.name] = it.child
		eb[dir.Ino] += entryWeight(it.name)
		// BUG W13: replaying the add of an extra hard link inserts both
		// the dir item and the inode ref, double-counting the entry.
		if f.Has("btrfs-replay-add-accounting") && countRefs(tree, it.child) >= 2 {
			eb[dir.Ino] += entryWeight(it.name)
		}
		if renamedIn {
			eb[dir.Ino] += entryWeight(it.name)
		}
	}
}

// replayDentryDel removes (dir, name). Deleting a present entry that
// references a different inode than recorded is a replay failure (the W5 /
// Figure 1 unmountable bug). Deleting an absent entry is idempotent.
func (f *FS) replayDentryDel(tree, committed *fstree.Tree, eb map[uint64]int64, it logItem) error {
	dir := tree.Get(it.dir)
	if dir == nil || dir.Kind != filesys.KindDir {
		return nil
	}
	existing, ok := dir.Children[it.name]
	if !ok {
		return nil // already gone: idempotent
	}
	if existing != it.child {
		return fmt.Errorf("logfs: replay deletion of %q expected inode %d, found %d: %w",
			it.name, it.child, existing, filesys.ErrCorrupted)
	}
	delete(dir.Children, it.name)

	skipAccounting := false
	if com := committed.Get(it.child); com != nil && com.Kind != filesys.KindDir {
		// BUG W15: replaying the unlink of a file that had exactly one
		// extra hard link skips the directory-size decrement.
		if f.Has("btrfs-replay-del-accounting") && com.Nlink == 2 {
			skipAccounting = true
		}
		// BUG W19: the same slip on the multiple-hard-links path, fixed
		// separately months later (§3 "Systematic testing is required").
		if f.Has("btrfs-replay-unlink-accounting") && com.Nlink >= 3 {
			skipAccounting = true
		}
	}
	if !skipAccounting {
		eb[dir.Ino] -= entryWeight(it.name)
	}

	if it.destroy && tree.Get(it.child) != nil {
		destroySubtree(tree, eb, it.child)
	}
	return nil
}

// destroySubtree deletes an inode and (for directories) everything beneath
// it — the buggy W8 replay behaviour.
func destroySubtree(tree *fstree.Tree, eb map[uint64]int64, ino uint64) {
	n := tree.Get(ino)
	if n == nil {
		return
	}
	if n.Kind == filesys.KindDir {
		for _, childIno := range n.Children {
			destroySubtree(tree, eb, childIno)
		}
		delete(eb, ino)
	}
	tree.RemoveNode(ino)
}

// countRefs counts directory entries referencing ino across the whole tree.
func countRefs(tree *fstree.Tree, ino uint64) int {
	count := 0
	for _, dIno := range tree.Inos() {
		d := tree.Get(dIno)
		if d == nil || d.Kind != filesys.KindDir {
			continue
		}
		for _, c := range d.Children {
			if c == ino {
				count++
			}
		}
	}
	return count
}

// validateSpecialRefs fails replay when a special file ends up with more
// namespace references than its logged link count admits.
func validateSpecialRefs(tree *fstree.Tree) error {
	for _, ino := range tree.Inos() {
		n := tree.Get(ino)
		if n == nil || n.Kind != filesys.KindFifo {
			continue
		}
		if refs := countRefs(tree, ino); refs > n.Nlink {
			return fmt.Errorf("logfs: special file inode %d has %d references but nlink %d: %w",
				ino, refs, n.Nlink, filesys.ErrCorrupted)
		}
	}
	return nil
}
