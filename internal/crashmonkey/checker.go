package crashmonkey

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"b3/internal/bugs"
	"b3/internal/filesys"
)

// Finding is one crash-consistency violation detected by the AutoChecker.
type Finding struct {
	Consequence bugs.Consequence
	Path        string
	Detail      string
}

// String renders the finding for bug reports.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Path, f.Consequence, f.Detail)
}

// inodeState is the captured content of one inode: everything the read
// checks and the tree-tier state hash can observe. Capturing it during the
// index walk means each regular file is read exactly once per crash state,
// no matter how many consumers (hashing, content checks, range checks) look
// at it afterwards.
type inodeState struct {
	stat   filesys.Stat
	data   []byte            // regular files
	target string            // symlinks
	xattrs map[string][]byte // every kind
}

// crashIndex is a full walk of the recovered crash state, carrying the
// contents of every inode. It is the single read pass over a recovered
// state: the tree-tier hash and the read checks both consume it instead of
// re-reading through MountedFS.
type crashIndex struct {
	entries map[dentryKey]filesys.Stat
	paths   map[uint64][]string
	inodes  map[uint64]*inodeState
	dirs    []string // all directory paths, root included

	// slab is the recycled backing array the index hands inodeState records
	// out of; used counts records handed out this build (slab-backed or
	// not). Pointers into slab stay valid because the slab is sized at
	// release time and never reallocated mid-build.
	slab []inodeState
	used int
}

// crashIndexPool recycles indexes across crash states: a sweep builds one
// index per checked state, and every build populates maps and an inodeState
// per inode. Reuse keeps that at steady-state zero allocation.
var crashIndexPool = sync.Pool{New: func() any {
	return &crashIndex{
		entries: make(map[dentryKey]filesys.Stat),
		paths:   make(map[uint64][]string),
		inodes:  make(map[uint64]*inodeState),
	}
}}

// newInodeState hands out a zeroed record, slab-backed while capacity
// lasts. The slab is never grown mid-build (appending could move earlier
// records out from under the pointers held in idx.inodes), so overflow
// records are allocated individually and release resizes the slab to fit.
func (idx *crashIndex) newInodeState() *inodeState {
	idx.used++
	if idx.used <= cap(idx.slab) {
		idx.slab = idx.slab[:idx.used]
		is := &idx.slab[idx.used-1]
		*is = inodeState{}
		return is
	}
	return new(inodeState)
}

// release resets the index and returns it to the pool. The caller must be
// done with everything the index handed out — inodeState pointers, file
// contents, path slices — as all of it is recycled or dropped.
func (idx *crashIndex) release() {
	if idx == nil {
		return
	}
	clear(idx.entries)
	clear(idx.paths)
	clear(idx.inodes)
	idx.dirs = idx.dirs[:0]
	if idx.used > cap(idx.slab) {
		idx.slab = make([]inodeState, 0, idx.used)
	} else {
		for i := range idx.slab {
			idx.slab[i] = inodeState{} // drop data/xattr references
		}
		idx.slab = idx.slab[:0]
	}
	idx.used = 0
	crashIndexPool.Put(idx)
}

func buildIndex(m filesys.MountedFS) (*crashIndex, error) {
	idx := crashIndexPool.Get().(*crashIndex)
	rootStat, err := m.Stat("/")
	if err != nil {
		idx.release()
		return nil, err
	}
	idx.paths[rootStat.Ino] = append(idx.paths[rootStat.Ino], "/")
	idx.dirs = append(idx.dirs, "/")
	if err := idx.captureInode(m, "/", rootStat); err != nil {
		idx.release()
		return nil, err
	}
	var walk func(dirPath string, dirIno uint64) error
	walk = func(dirPath string, dirIno uint64) error {
		ents, err := m.ReadDir(dirPath)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			p := joinPath(dirPath, ent.Name)
			st, err := m.Stat(p)
			if err != nil {
				return fmt.Errorf("stat %s: %w", p, err)
			}
			idx.entries[dentryKey{parent: dirIno, name: ent.Name}] = st
			idx.paths[st.Ino] = append(idx.paths[st.Ino], p)
			if err := idx.captureInode(m, p, st); err != nil {
				return err
			}
			if st.Kind == filesys.KindDir {
				idx.dirs = append(idx.dirs, p)
				if err := walk(p, st.Ino); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk("/", rootStat.Ino); err != nil {
		idx.release()
		return nil, err
	}
	for ino := range idx.paths {
		sort.Strings(idx.paths[ino])
	}
	sort.Strings(idx.dirs)
	return idx, nil
}

// captureInode records the content of an inode the first time a path
// resolves to it (hard links share one capture). Every read error is
// propagated — including ListXattr: a state whose xattr listing fails must
// not index (or hash) like a state with no xattrs, or the tree tier could
// reuse a verdict across genuinely different states.
func (idx *crashIndex) captureInode(m filesys.MountedFS, path string, st filesys.Stat) error {
	if _, ok := idx.inodes[st.Ino]; ok {
		return nil
	}
	is := idx.newInodeState()
	is.stat = st
	switch st.Kind {
	case filesys.KindRegular:
		data, err := m.ReadFile(path)
		if err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		is.data = data
	case filesys.KindSymlink:
		target, err := m.ReadLink(path)
		if err != nil {
			return fmt.Errorf("readlink %s: %w", path, err)
		}
		is.target = target
	case filesys.KindDir, filesys.KindFifo:
		// No content beyond stat and xattrs; directory structure is indexed
		// by the dentry walk, not per inode.
	}
	xa, err := m.ListXattr(path)
	if err != nil {
		return fmt.Errorf("listxattr %s: %w", path, err)
	}
	is.xattrs = xa
	idx.inodes[st.Ino] = is
	return nil
}

// fileStateOf renders an indexed inode as a checkable fileState (nil when
// the inode is not in the index).
func (idx *crashIndex) fileStateOf(ino uint64) *fileState {
	is, ok := idx.inodes[ino]
	if !ok {
		return nil
	}
	out := &fileState{
		kind:    is.stat.Kind,
		size:    is.stat.Size,
		sectors: is.stat.Blocks,
		nlink:   is.stat.Nlink,
	}
	switch is.stat.Kind {
	case filesys.KindRegular:
		out.data = is.data
	case filesys.KindSymlink:
		out.target = is.target
		out.size = int64(len(is.target))
	case filesys.KindDir, filesys.KindFifo:
		// Checkable state is the stat fields already copied above.
	}
	if len(is.xattrs) > 0 {
		out.xattrs = is.xattrs
	}
	return out
}

// walkDirs lists every directory of the mounted state, root included,
// sorted. The write checks need only the directory skeleton, so they avoid
// the content capture buildIndex performs.
func walkDirs(m filesys.MountedFS) ([]string, error) {
	dirs := []string{"/"}
	var walk func(dirPath string) error
	walk = func(dirPath string) error {
		ents, err := m.ReadDir(dirPath)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			if ent.Kind != filesys.KindDir {
				continue
			}
			p := joinPath(dirPath, ent.Name)
			dirs = append(dirs, p)
			if err := walk(p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// keyPath renders a dentry key using the oracle model (for report text).
func (e *Expectation) keyPath(k dentryKey) string {
	if parent := e.model.Get(k.parent); parent != nil {
		for _, p := range e.model.PathsOf(k.parent) {
			return joinPath(p, k.name)
		}
	}
	return fmt.Sprintf("<ino %d>/%s", k.parent, k.name)
}

// walkFailure renders an unwalkable crash state as a finding.
func walkFailure(err error) Finding {
	return Finding{
		Consequence: bugs.Unmountable,
		Path:        "/",
		Detail:      fmt.Sprintf("crash state not walkable: %v", err),
	}
}

// checkReadIndexed runs the read checks (§5.1) over a prebuilt crash
// index — persisted files and directories are compared against the oracle.
// The caller builds the index once and shares it with state hashing; the
// checks never touch the mounted file system again.
func (e *Expectation) checkReadIndexed(idx *crashIndex) []Finding {
	var findings []Finding
	add := func(f Finding) { findings = append(findings, f) }

	// Dentry checks.
	for _, b := range e.bindings {
		switch {
		case b.absent:
			if st, ok := idx.entries[b.key]; ok && st.Ino == b.ino {
				cons := bugs.ResurrectedEntry
				if b.movedTo != nil {
					// A durably renamed-away entry that is still present:
					// when the inode is also visible at its new location
					// the rename produced two copies (Table 5 #2).
					if len(idx.paths[b.ino]) > 1 {
						cons = bugs.FileInBothLocations
					} else {
						cons = bugs.WrongLocation
					}
				}
				add(Finding{cons, e.keyPath(b.key), "durably removed entry present after crash"})
			}
		case b.level > levelNone && !b.removed:
			st, ok := idx.entries[b.key]
			if ok && st.Ino == b.ino {
				continue
			}
			detail := "persisted entry missing"
			if ok {
				detail = fmt.Sprintf("persisted entry resolves to inode %d, want %d", st.Ino, b.ino)
			}
			cons := bugs.FileMissing
			if len(idx.paths[b.ino]) > 0 {
				cons = bugs.DirEntryMissing
				// Found only at a durably-stale location: wrong directory.
				if e.atStaleLocation(idx, b.ino) {
					cons = bugs.WrongLocation
				}
			}
			add(Finding{cons, e.keyPath(b.key), detail})
		case b.level > levelNone && b.removed && b.movedTo != nil:
			// Rename-atomicity chain: the file must be at exactly one of
			// its names (§4.1 correctness criteria; Table 5 bugs #1/#2).
			if f, bad := e.checkChain(idx, b); bad {
				add(f)
			}
		}
	}

	// Inode content checks.
	inos := make([]uint64, 0, len(e.files))
	for ino := range e.files {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	for _, ino := range inos {
		fe := e.files[ino]
		paths := idx.paths[ino]
		if len(paths) == 0 {
			continue // absence is reported by the dentry checks
		}
		findings = append(findings, e.checkContent(idx, fe, ino, paths[0])...)
	}
	return findings
}

// atStaleLocation reports whether ino is visible only at durably removed
// locations (the "file ended up in a different directory" consequence).
func (e *Expectation) atStaleLocation(idx *crashIndex, ino uint64) bool {
	for _, b := range e.bindings {
		if b.ino != ino || !b.absent {
			continue
		}
		if st, ok := idx.entries[b.key]; ok && st.Ino == ino {
			return true
		}
	}
	return false
}

// checkChain validates rename atomicity for a chain head binding. A chain
// may revisit a key (rename there and back); keys are deduplicated and the
// walk stops on the first revisit.
func (e *Expectation) checkChain(idx *crashIndex, head *dentryExpect) (Finding, bool) {
	seen := map[dentryKey]bool{head.key: true}
	keys := []dentryKey{head.key}
	unlinked := head.unlinkedLater
	cur := head
	for cur.movedTo != nil {
		next := *cur.movedTo
		if seen[next] {
			break
		}
		seen[next] = true
		keys = append(keys, next)
		var follow *dentryExpect
		for _, b := range e.bindings {
			if b.key == next && b.ino == head.ino && b != cur {
				follow = b
			}
		}
		if follow == nil {
			break
		}
		unlinked = unlinked || follow.unlinkedLater
		if follow.movedTo == nil {
			break
		}
		cur = follow
	}
	present := 0
	for _, k := range keys {
		if st, ok := idx.entries[k]; ok && st.Ino == head.ino {
			present++
		}
	}
	switch {
	case present > 1:
		return Finding{
			Consequence: bugs.FileInBothLocations,
			Path:        e.keyPath(head.key),
			Detail:      fmt.Sprintf("rename left the file visible at %d locations", present),
		}, true
	case present == 0 && !unlinked && len(idx.paths[head.ino]) == 0:
		return Finding{
			Consequence: bugs.RenameBothLost,
			Path:        e.keyPath(head.key),
			Detail:      "rename left the file at neither the old nor the new name",
		}, true
	}
	return Finding{}, false
}

// checkContent compares one inode's crash state against its expectation.
// All content comes from the index; nothing is re-read from the mount.
func (e *Expectation) checkContent(idx *crashIndex, fe *fileExpect, ino uint64, path string) []Finding {
	var findings []Finding
	if fe.level < levelData || fe.state == nil {
		// Existence-level expectations still carry pinned ranges/minSize
		// (msync / direct IO).
		return append(findings, e.checkRanges(idx, fe, ino, path)...)
	}
	if fe.modified && (len(fe.ranges) > 0 || fe.minSize > 0) {
		// Direct IO or msync after the snapshot persists out of order with
		// buffered changes; the pinned ranges and minimum size are the
		// only content requirements left.
		return append(findings, e.checkRanges(idx, fe, ino, path)...)
	}
	actual := idx.fileStateOf(ino)
	if actual == nil {
		return append(findings, Finding{bugs.DataLoss, path, "unreadable: inode missing from crash index"})
	}
	checkNlink := fe.level >= levelFull && !fe.modified && !fe.nsModified

	candidates := []*fileState{fe.state}
	if fe.modified {
		candidates = append(candidates, fe.accepted...)
	}
	var firstDetail string
	for i, want := range candidates {
		ok, detail := statesEqual(want, actual, fe.level, checkNlink && i == 0)
		if ok {
			return append(findings, e.checkRanges(idx, fe, ino, path)...)
		}
		if i == 0 {
			firstDetail = detail
		}
	}
	findings = append(findings, Finding{
		Consequence: classifyStateDiff(fe.state, actual, firstDetail),
		Path:        path,
		Detail:      firstDetail,
	})
	return append(findings, e.checkRanges(idx, fe, ino, path)...)
}

func (e *Expectation) checkRanges(idx *crashIndex, fe *fileExpect, ino uint64, path string) []Finding {
	if len(fe.ranges) == 0 && fe.minSize == 0 {
		return nil
	}
	is, ok := idx.inodes[ino]
	if !ok || is.stat.Kind != filesys.KindRegular {
		return nil
	}
	var findings []Finding
	if fe.minSize > 0 && is.stat.Size < fe.minSize {
		findings = append(findings, Finding{
			Consequence: bugs.WrongSize,
			Path:        path,
			Detail:      fmt.Sprintf("size %d below durable minimum %d", is.stat.Size, fe.minSize),
		})
	}
	data := is.data
	for _, r := range fe.ranges {
		end := r.off + int64(len(r.data))
		if end > int64(len(data)) || !bytes.Equal(data[r.off:end], r.data) {
			findings = append(findings, Finding{
				Consequence: bugs.DataLoss,
				Path:        path,
				Detail:      fmt.Sprintf("synced range [%d,%d) lost", r.off, end),
			})
		}
	}
	return findings
}

func classifyStateDiff(want, got *fileState, detail string) bugs.Consequence {
	switch {
	case strings.HasPrefix(detail, "symlink target"):
		if got.target == "" {
			return bugs.EmptySymlink
		}
		return bugs.DataLoss
	case strings.HasPrefix(detail, "size"):
		return bugs.WrongSize
	case strings.HasPrefix(detail, "sectors"):
		if got.sectors < want.sectors {
			return bugs.BlocksLost
		}
		return bugs.HoleNotPersisted
	case strings.HasPrefix(detail, "xattrs"):
		return bugs.XattrInconsistent
	case strings.HasPrefix(detail, "nlink"):
		return bugs.WrongLinkCount
	}
	return bugs.DataLoss
}

// CheckWrite runs the write checks (§5.1: "the write checks test if a bug
// makes it impossible to modify files or directories"). It is destructive
// and must run on a disposable fork of the crash state.
func CheckWrite(m filesys.MountedFS) []Finding {
	var findings []Finding
	allDirs, err := walkDirs(m)
	if err != nil {
		return []Finding{{bugs.Unmountable, "/", fmt.Sprintf("walk failed: %v", err)}}
	}

	// Every surviving directory must accept a new file.
	for _, dir := range allDirs {
		probe := joinPath(dir, ".b3probe")
		if err := m.Create(probe); err != nil {
			findings = append(findings, Finding{
				Consequence: bugs.CannotCreateFiles,
				Path:        dir,
				Detail:      fmt.Sprintf("create failed: %v", err),
			})
			continue
		}
		if err := m.Write(probe, 0, []byte{1}); err != nil {
			findings = append(findings, Finding{bugs.CannotCreateFiles, dir,
				fmt.Sprintf("write to new file failed: %v", err)})
		}
		if err := m.Unlink(probe); err != nil {
			findings = append(findings, Finding{bugs.CannotCreateFiles, dir,
				fmt.Sprintf("unlink of new file failed: %v", err)})
		}
	}

	// Every directory must be removable once emptied (deepest first).
	dirs := append([]string(nil), allDirs...)
	sort.Slice(dirs, func(i, j int) bool {
		di, dj := strings.Count(dirs[i], "/"), strings.Count(dirs[j], "/")
		if di != dj {
			return di > dj
		}
		return dirs[i] > dirs[j]
	})
	failed := map[string]bool{}
	for _, dir := range dirs {
		if dir == "/" {
			continue
		}
		ents, err := m.ReadDir(dir)
		if err != nil {
			continue
		}
		skip := false
		for _, ent := range ents {
			p := joinPath(dir, ent.Name)
			if ent.Kind == filesys.KindDir {
				// A subdirectory that failed its own removal poisons the
				// parent legitimately; don't double-report.
				if failed[p] {
					skip = true
				}
				continue
			}
			if err := m.Unlink(p); err != nil {
				findings = append(findings, Finding{bugs.UnremovableDir, dir,
					fmt.Sprintf("cannot empty: unlink %s: %v", p, err)})
				skip = true
			}
		}
		if skip {
			failed[dir] = true
			continue
		}
		if err := m.Rmdir(dir); err != nil {
			failed[dir] = true
			findings = append(findings, Finding{
				Consequence: bugs.UnremovableDir,
				Path:        dir,
				Detail:      fmt.Sprintf("rmdir of emptied dir failed: %v", err),
			})
		}
	}
	return findings
}
