// Package fstree implements the in-memory file-tree model shared by every
// file system in this repository and by the CrashMonkey oracle tracker.
//
// A Tree holds inodes (files, directories, symlinks, fifos) with full POSIX
// namespace semantics: hard links, rename with replacement, sparse files
// with explicit allocated extents (for st_blocks and hole accounting), and
// extended attributes. File systems embed a Tree as their in-memory state
// and serialize it (or deltas of it) to the block device; crash-consistency
// bugs are then precisely the divergence between the in-memory Tree and
// what the file system managed to persist.
package fstree

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
)

// RootIno is the inode number of the root directory.
const RootIno uint64 = 1

// Node is a single inode.
//
// Data, Extents and the xattr values are immutable once installed: clones,
// tracker snapshots and decoded images share them, so every mutator installs
// a fresh slice (WriteAt and Resize for Data, which may also install a view
// of the never-written zero page) and never writes through the old one.
// Only the Children and Xattrs maps belong to one node.
type Node struct {
	Ino      uint64
	Kind     filesys.FileKind
	Nlink    int
	Data     []byte // regular file content; len(Data) is the file size
	Extents  []filesys.Extent
	Xattrs   map[string][]byte
	Target   string            // symlink target
	Children map[string]uint64 // directory entries
}

// WriteAt stores data at off, zero-filling any gap past the old size. The
// node gets a new slice; the old one, and every slice sharing it, keep
// their bytes. A covering write (off 0, at least as long as the file)
// installs data itself, capped at its length, instead of a copy: data is
// never modified but may be kept, so the caller must never modify it
// afterwards. When the old content and data are both zero views (see
// Zeros) and the result fits the zero page, the result is a zero view too
// and nothing is copied.
func (n *Node) WriteAt(off int64, data []byte) {
	if off == 0 && len(data) >= len(n.Data) {
		n.Data = data[:len(data):len(data)]
		return
	}
	end := max(off+int64(len(data)), int64(len(n.Data)))
	if end <= int64(len(zeroPage)) && isZeroView(n.Data) && isZeroView(data) {
		n.Data = zeroPage[:end:end]
		return
	}
	fresh := make([]byte, end)
	copy(fresh, n.Data)
	copy(fresh[off:], data)
	n.Data = fresh
}

// zeroPage backs Zeros and every zero-only file content WriteAt and Resize
// build; it is never written. It is larger than any file ACE's dependency
// model holds (DepFileSize + 8192 bytes), so that model copies no content.
var zeroPage [64 << 10]byte

// isZeroView reports whether b holds only zero-page bytes: it is empty or
// starts at the zero page, as every slice Zeros, WriteAt and Resize make of
// it does.
func isZeroView(b []byte) bool { return len(b) == 0 || &b[0] == &zeroPage[0] }

// Zeros returns n zero bytes with capacity n, for writes that only zero a
// range. Up to the zero page's size the slice is a zero view, shared by
// every caller and every file content built from it, and must not be
// modified; longer ones are allocated.
func Zeros(n int64) []byte {
	if n > int64(len(zeroPage)) {
		return make([]byte, n)
	}
	return zeroPage[:n:n]
}

// Resize sets the file size. Shrinking reslices with capacity equal to the
// new length, so a later append cannot write into shared bytes; growing
// installs a fresh zero-extended copy, or a longer zero view when the
// content is one and the new size fits the zero page.
func (n *Node) Resize(size int64) {
	switch {
	case size < int64(len(n.Data)):
		n.Data = n.Data[:size:size]
	case size > int64(len(n.Data)):
		if size <= int64(len(zeroPage)) && isZeroView(n.Data) {
			n.Data = zeroPage[:size:size]
			return
		}
		grown := make([]byte, size)
		copy(grown, n.Data)
		n.Data = grown
	}
}

// Size returns the logical file size.
func (n *Node) Size() int64 {
	if n.Kind == filesys.KindSymlink {
		return int64(len(n.Target))
	}
	return int64(len(n.Data))
}

// Sectors returns the allocated size in 512-byte sectors (st_blocks).
func (n *Node) Sectors() int64 {
	var total int64
	for _, e := range n.Extents {
		total += e.Len
	}
	return total / blockdev.SectorSize
}

// Stat builds the checker-visible metadata for the node.
func (n *Node) Stat() filesys.Stat {
	return filesys.Stat{
		Ino:    n.Ino,
		Kind:   n.Kind,
		Nlink:  n.Nlink,
		Size:   n.Size(),
		Blocks: n.Sectors(),
	}
}

// Clone copies the node. The copy shares the immutable Data, Extents and
// xattr values and owns fresh Children and Xattrs maps.
func (n *Node) Clone() *Node {
	c := new(Node)
	n.cloneInto(c)
	return c
}

// cloneInto copies the node into c (overwriting it), as Clone does. Split
// from Clone so Tree.Clone can fill arena slots instead of allocating per
// node.
func (n *Node) cloneInto(c *Node) {
	*c = *n
	c.Xattrs = maps.Clone(n.Xattrs)
	c.Children = maps.Clone(n.Children)
}

// Tree is a complete in-memory file system image.
type Tree struct {
	nodes   map[uint64]*Node
	nextIno uint64
}

// New returns a tree containing only an empty root directory.
func New() *Tree {
	t := &Tree{nodes: make(map[uint64]*Node), nextIno: RootIno + 1}
	t.nodes[RootIno] = &Node{
		Ino:      RootIno,
		Kind:     filesys.KindDir,
		Nlink:    2,
		Children: make(map[string]uint64),
	}
	return t
}

// NextIno returns the next inode number that will be allocated.
func (t *Tree) NextIno() uint64 { return t.nextIno }

// SetNextIno overrides the inode allocation counter. Recovery code uses
// this; the btrfs bug where the counter is not advanced past replayed
// inodes (appendix workload 6) is modelled through it.
func (t *Tree) SetNextIno(v uint64) { t.nextIno = v }

func (t *Tree) allocIno() uint64 {
	ino := t.nextIno
	t.nextIno++
	return ino
}

// Get returns the node for ino, or nil.
func (t *Tree) Get(ino uint64) *Node { return t.nodes[ino] }

// Root returns the root directory node.
func (t *Tree) Root() *Node { return t.nodes[RootIno] }

// Inos returns all inode numbers in ascending order.
func (t *Tree) Inos() []uint64 {
	out := make([]uint64, 0, len(t.nodes))
	for ino := range t.nodes {
		out = append(out, ino)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SplitPath normalizes and splits an absolute path into components.
func SplitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// Lookup resolves path to a node. Symlinks are not followed.
func (t *Tree) Lookup(path string) (*Node, error) {
	n, dangling, err := t.resolve(path)
	if err != nil {
		return nil, &lookupError{path: path, dangling: dangling, err: err}
	}
	return n, nil
}

// Exists reports whether path resolves.
func (t *Tree) Exists(path string) bool {
	_, _, err := t.resolve(path)
	return err == nil
}

// resolve walks path's components, as SplitPath yields them, without
// allocating. A failure is the bare sentinel: ErrNotDir, ErrNotExist, or
// ErrCorrupted with the name of the dangling entry.
func (t *Tree) resolve(path string) (n *Node, dangling string, err error) {
	n = t.Root()
	rest := strings.Trim(path, "/")
	for more := rest != ""; more; {
		var comp string
		comp, rest, more = strings.Cut(rest, "/")
		if n.Kind != filesys.KindDir {
			return nil, "", filesys.ErrNotDir
		}
		child, ok := n.Children[comp]
		if !ok {
			return nil, "", filesys.ErrNotExist
		}
		if n = t.nodes[child]; n == nil {
			return nil, comp, filesys.ErrCorrupted
		}
	}
	return n, "", nil
}

// lookupError is a failed Lookup. It formats its text only when asked.
type lookupError struct {
	path, dangling string
	err            error
}

func (e *lookupError) Error() string {
	if e.err == filesys.ErrCorrupted {
		return fmt.Sprintf("lookup %q: dangling entry %q: %v", e.path, e.dangling, e.err)
	}
	return fmt.Sprintf("lookup %q: %v", e.path, e.err)
}

func (e *lookupError) Unwrap() error { return e.err }

// resolveParent returns the parent directory node and final component.
func (t *Tree) resolveParent(path string) (*Node, string, error) {
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return nil, "", fmt.Errorf("resolve %q: %w", path, filesys.ErrInvalid)
	}
	i := strings.LastIndexByte(trimmed, '/')
	parent, err := t.Lookup(trimmed[:max(i, 0)])
	if err != nil {
		return nil, "", err
	}
	if parent.Kind != filesys.KindDir {
		return nil, "", fmt.Errorf("resolve %q: %w", path, filesys.ErrNotDir)
	}
	return parent, trimmed[i+1:], nil
}

func (t *Tree) addNode(parent *Node, name string, kind filesys.FileKind) (*Node, error) {
	if _, ok := parent.Children[name]; ok {
		return nil, fmt.Errorf("create %q: %w", name, filesys.ErrExist)
	}
	n := &Node{Ino: t.allocIno(), Kind: kind, Nlink: 1}
	if _, exists := t.nodes[n.Ino]; exists {
		return nil, fmt.Errorf("create %q: inode %d already allocated: %w", name, n.Ino, filesys.ErrExist)
	}
	switch kind {
	case filesys.KindDir:
		n.Nlink = 2
		n.Children = make(map[string]uint64)
		parent.Nlink++
	case filesys.KindRegular:
		n.Data = []byte{}
	case filesys.KindSymlink, filesys.KindFifo:
		// No payload to initialize; Symlink sets the target after addNode.
	}
	t.nodes[n.Ino] = n
	parent.Children[name] = n.Ino
	return n, nil
}

// Create makes an empty regular file.
func (t *Tree) Create(path string) (*Node, error) {
	parent, name, err := t.resolveParent(path)
	if err != nil {
		return nil, err
	}
	return t.addNode(parent, name, filesys.KindRegular)
}

// Mkdir makes an empty directory.
func (t *Tree) Mkdir(path string) (*Node, error) {
	parent, name, err := t.resolveParent(path)
	if err != nil {
		return nil, err
	}
	return t.addNode(parent, name, filesys.KindDir)
}

// Symlink makes a symbolic link at linkPath pointing at target.
func (t *Tree) Symlink(target, linkPath string) (*Node, error) {
	parent, name, err := t.resolveParent(linkPath)
	if err != nil {
		return nil, err
	}
	n, err := t.addNode(parent, name, filesys.KindSymlink)
	if err != nil {
		return nil, err
	}
	n.Target = target
	return n, nil
}

// Mkfifo makes a named pipe.
func (t *Tree) Mkfifo(path string) (*Node, error) {
	parent, name, err := t.resolveParent(path)
	if err != nil {
		return nil, err
	}
	return t.addNode(parent, name, filesys.KindFifo)
}

// Link makes a hard link. Directories cannot be hard-linked.
func (t *Tree) Link(oldPath, newPath string) (*Node, error) {
	target, err := t.Lookup(oldPath)
	if err != nil {
		return nil, err
	}
	if target.Kind == filesys.KindDir {
		return nil, fmt.Errorf("link %q: %w", oldPath, filesys.ErrIsDir)
	}
	parent, name, err := t.resolveParent(newPath)
	if err != nil {
		return nil, err
	}
	if _, ok := parent.Children[name]; ok {
		return nil, fmt.Errorf("link %q: %w", newPath, filesys.ErrExist)
	}
	parent.Children[name] = target.Ino
	target.Nlink++
	return target, nil
}

// Unlink removes a non-directory entry. It returns the unlinked node and
// whether the node was fully removed (link count reached zero).
func (t *Tree) Unlink(path string) (*Node, bool, error) {
	parent, name, err := t.resolveParent(path)
	if err != nil {
		return nil, false, err
	}
	ino, ok := parent.Children[name]
	if !ok {
		return nil, false, fmt.Errorf("unlink %q: %w", path, filesys.ErrNotExist)
	}
	n := t.nodes[ino]
	if n.Kind == filesys.KindDir {
		return nil, false, fmt.Errorf("unlink %q: %w", path, filesys.ErrIsDir)
	}
	delete(parent.Children, name)
	n.Nlink--
	if n.Nlink <= 0 {
		delete(t.nodes, ino)
		return n, true, nil
	}
	return n, false, nil
}

// Rmdir removes an empty directory.
func (t *Tree) Rmdir(path string) (*Node, error) {
	parent, name, err := t.resolveParent(path)
	if err != nil {
		return nil, err
	}
	ino, ok := parent.Children[name]
	if !ok {
		return nil, fmt.Errorf("rmdir %q: %w", path, filesys.ErrNotExist)
	}
	n := t.nodes[ino]
	if n.Kind != filesys.KindDir {
		return nil, fmt.Errorf("rmdir %q: %w", path, filesys.ErrNotDir)
	}
	if len(n.Children) > 0 {
		return nil, fmt.Errorf("rmdir %q: %w", path, filesys.ErrNotEmpty)
	}
	delete(parent.Children, name)
	parent.Nlink--
	delete(t.nodes, ino)
	return n, nil
}

// Rename moves src to dst with POSIX rename(2) replacement semantics. It
// returns the moved node and the replaced node (nil if dst did not exist).
func (t *Tree) Rename(src, dst string) (moved, replaced *Node, err error) {
	srcParent, srcName, err := t.resolveParent(src)
	if err != nil {
		return nil, nil, err
	}
	srcIno, ok := srcParent.Children[srcName]
	if !ok {
		return nil, nil, fmt.Errorf("rename %q: %w", src, filesys.ErrNotExist)
	}
	srcNode := t.nodes[srcIno]
	if srcNode == nil {
		return nil, nil, fmt.Errorf("rename %q: dangling entry %q: %w", src, srcName, filesys.ErrCorrupted)
	}

	dstParent, dstName, err := t.resolveParent(dst)
	if err != nil {
		return nil, nil, err
	}

	// A directory may not be moved into its own subtree.
	if srcNode.Kind == filesys.KindDir && t.isAncestorOf(srcNode, dstParent) {
		return nil, nil, fmt.Errorf("rename %q into own subtree: %w", src, filesys.ErrInvalid)
	}

	if dstIno, exists := dstParent.Children[dstName]; exists {
		if dstIno == srcIno {
			return srcNode, nil, nil // rename to a hard link of itself: no-op
		}
		dstNode := t.nodes[dstIno]
		if dstNode == nil {
			return nil, nil, fmt.Errorf("rename over %q: dangling entry %q: %w", dst, dstName, filesys.ErrCorrupted)
		}
		switch {
		case srcNode.Kind == filesys.KindDir && dstNode.Kind != filesys.KindDir:
			return nil, nil, fmt.Errorf("rename %q over %q: %w", src, dst, filesys.ErrNotDir)
		case srcNode.Kind != filesys.KindDir && dstNode.Kind == filesys.KindDir:
			return nil, nil, fmt.Errorf("rename %q over %q: %w", src, dst, filesys.ErrIsDir)
		case dstNode.Kind == filesys.KindDir && len(dstNode.Children) > 0:
			return nil, nil, fmt.Errorf("rename over %q: %w", dst, filesys.ErrNotEmpty)
		}
		// Replace dst.
		delete(dstParent.Children, dstName)
		if dstNode.Kind == filesys.KindDir {
			dstParent.Nlink--
			delete(t.nodes, dstIno)
		} else {
			dstNode.Nlink--
			if dstNode.Nlink <= 0 {
				delete(t.nodes, dstIno)
			}
		}
		replaced = dstNode
	}

	delete(srcParent.Children, srcName)
	dstParent.Children[dstName] = srcIno
	if srcNode.Kind == filesys.KindDir && srcParent != dstParent {
		srcParent.Nlink--
		dstParent.Nlink++
	}
	return srcNode, replaced, nil
}

func (t *Tree) isAncestorOf(anc, n *Node) bool {
	if anc == n {
		return true
	}
	for _, childIno := range anc.Children {
		child := t.nodes[childIno]
		if child != nil && child.Kind == filesys.KindDir && t.isAncestorOf(child, n) {
			return true
		}
	}
	return false
}

const blockSize = int64(blockdev.BlockSize)

func alignDown(v int64) int64 { return v &^ (blockSize - 1) }
func alignUp(v int64) int64   { return (v + blockSize - 1) &^ (blockSize - 1) }

// AllocRange marks the block-aligned cover of [off, end) as allocated.
func (n *Node) AllocRange(off, end int64) {
	if end <= off {
		return
	}
	start, stop := alignDown(off), alignUp(end)
	merged := make([]filesys.Extent, 0, len(n.Extents)+1)
	inserted := false
	for _, e := range n.Extents {
		if e.Off+e.Len < start || e.Off > stop {
			if !inserted && e.Off > stop {
				merged = append(merged, filesys.Extent{Off: start, Len: stop - start})
				inserted = true
			}
			merged = append(merged, e)
			continue
		}
		// Overlapping or adjacent: widen the pending range.
		if e.Off < start {
			start = e.Off
		}
		if e.Off+e.Len > stop {
			stop = e.Off + e.Len
		}
	}
	if !inserted {
		merged = append(merged, filesys.Extent{Off: start, Len: stop - start})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Off < merged[j].Off })
	n.Extents = merged
}

// DeallocRange removes allocation for whole blocks strictly inside
// [off, end); partial edge blocks stay allocated (punch-hole semantics).
func (n *Node) DeallocRange(off, end int64) {
	start, stop := alignUp(off), alignDown(end)
	if stop <= start {
		return
	}
	var out []filesys.Extent
	for _, e := range n.Extents {
		eEnd := e.Off + e.Len
		if eEnd <= start || e.Off >= stop {
			out = append(out, e)
			continue
		}
		if e.Off < start {
			out = append(out, filesys.Extent{Off: e.Off, Len: start - e.Off})
		}
		if eEnd > stop {
			out = append(out, filesys.Extent{Off: stop, Len: eEnd - stop})
		}
	}
	n.Extents = out
}

func (t *Tree) lookupRegular(path string) (*Node, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	if n.Kind == filesys.KindDir {
		return nil, fmt.Errorf("write %q: %w", path, filesys.ErrIsDir)
	}
	if n.Kind != filesys.KindRegular {
		return nil, fmt.Errorf("write %q: %w", path, filesys.ErrInvalid)
	}
	return n, nil
}

// Write stores data at off, extending the file and allocating blocks. data
// is never modified but may be kept (see Node.WriteAt), so the caller must
// never modify it afterwards.
func (t *Tree) Write(path string, off int64, data []byte) (*Node, error) {
	n, err := t.lookupRegular(path)
	if err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("write %q: negative offset: %w", path, filesys.ErrInvalid)
	}
	n.WriteAt(off, data)
	n.AllocRange(off, off+int64(len(data)))
	return n, nil
}

// Truncate sets the file size. Shrinking deallocates blocks beyond the new
// size; growing leaves a hole (no allocation).
func (t *Tree) Truncate(path string, size int64) (*Node, error) {
	n, err := t.lookupRegular(path)
	if err != nil {
		return nil, err
	}
	if size < 0 {
		return nil, fmt.Errorf("truncate %q: %w", path, filesys.ErrInvalid)
	}
	if old := int64(len(n.Data)); size < old {
		n.DeallocRange(alignUp(size), alignUp(old))
	}
	n.Resize(size)
	return n, nil
}

// Falloc implements fallocate(2) with the modes in filesys.FallocMode.
func (t *Tree) Falloc(path string, mode filesys.FallocMode, off, length int64) (*Node, error) {
	n, err := t.lookupRegular(path)
	if err != nil {
		return nil, err
	}
	if off < 0 || length <= 0 {
		return nil, fmt.Errorf("falloc %q: %w", path, filesys.ErrInvalid)
	}
	end := off + length
	zero := func() {
		if upto := min(end, int64(len(n.Data))); off < upto {
			n.WriteAt(off, Zeros(upto-off))
		}
	}
	switch mode {
	case filesys.FallocDefault:
		n.AllocRange(off, end)
		n.Resize(max(end, int64(len(n.Data))))
	case filesys.FallocKeepSize:
		n.AllocRange(off, end)
	case filesys.FallocPunchHole:
		zero()
		n.DeallocRange(off, end)
	case filesys.FallocZeroRange:
		n.WriteAt(off, Zeros(length))
		n.AllocRange(off, end)
	case filesys.FallocZeroRangeKeepSize:
		zero()
		n.AllocRange(off, end)
	default:
		return nil, fmt.Errorf("falloc %q: unknown mode %d: %w", path, mode, filesys.ErrInvalid)
	}
	return n, nil
}

// SetXattr sets an extended attribute.
func (t *Tree) SetXattr(path, name string, value []byte) (*Node, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	if n.Xattrs == nil {
		n.Xattrs = make(map[string][]byte)
	}
	n.Xattrs[name] = append([]byte(nil), value...)
	return n, nil
}

// RemoveXattr removes an extended attribute.
func (t *Tree) RemoveXattr(path, name string) (*Node, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	if _, ok := n.Xattrs[name]; !ok {
		return nil, fmt.Errorf("removexattr %q %q: %w", path, name, filesys.ErrNoData)
	}
	delete(n.Xattrs, name)
	return n, nil
}

// ReadDir lists a directory in name order.
func (t *Tree) ReadDir(path string) ([]filesys.DirEntry, error) {
	n, err := t.Lookup(path)
	if err != nil {
		return nil, err
	}
	if n.Kind != filesys.KindDir {
		return nil, fmt.Errorf("readdir %q: %w", path, filesys.ErrNotDir)
	}
	names := make([]string, 0, len(n.Children))
	for name := range n.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]filesys.DirEntry, 0, len(names))
	for _, name := range names {
		child := t.nodes[n.Children[name]]
		if child == nil {
			// Dangling entry: buggy recovery can alias a directory under
			// two names and removal through one leaves the other behind.
			continue
		}
		out = append(out, filesys.DirEntry{Name: name, Ino: child.Ino, Kind: child.Kind})
	}
	return out, nil
}

// PathsOf returns every path that resolves to ino, in sorted order.
func (t *Tree) PathsOf(ino uint64) []string {
	var out []string
	var walk func(prefix string, dir *Node)
	walk = func(prefix string, dir *Node) {
		names := make([]string, 0, len(dir.Children))
		for name := range dir.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			childIno := dir.Children[name]
			p := prefix + "/" + name
			if childIno == ino {
				out = append(out, p)
			}
			if child := t.nodes[childIno]; child != nil && child.Kind == filesys.KindDir {
				walk(p, child)
			}
		}
	}
	if ino == RootIno {
		return []string{"/"}
	}
	walk("", t.Root())
	return out
}

// Walk visits every path (directories before their contents) in sorted
// order, calling fn with the clean absolute path and node.
func (t *Tree) Walk(fn func(path string, n *Node)) {
	var walk func(prefix string, dir *Node)
	walk = func(prefix string, dir *Node) {
		names := make([]string, 0, len(dir.Children))
		for name := range dir.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			child := t.nodes[dir.Children[name]]
			if child == nil {
				continue
			}
			p := prefix + "/" + name
			fn(p, child)
			if child.Kind == filesys.KindDir {
				walk(p, child)
			}
		}
	}
	fn("/", t.Root())
	walk("", t.Root())
}

// Clone copies the tree's nodes and maps; file contents, extents and xattr
// values are shared, never copied (see Node). The copied nodes live in one
// arena slice — a single allocation instead of one per inode — which is
// safe because the arena is sized exactly upfront and never appended to
// afterwards (a grow would move slots out from under the node map's
// pointers). Nodes added to the clone later are allocated individually as
// usual; the arena stays alive until the cloned tree is collected.
func (t *Tree) Clone() *Tree {
	c := &Tree{nodes: make(map[uint64]*Node, len(t.nodes)), nextIno: t.nextIno}
	arena := make([]Node, len(t.nodes))
	i := 0
	for ino, n := range t.nodes {
		slot := &arena[i]
		i++
		n.cloneInto(slot)
		c.nodes[ino] = slot
	}
	return c
}

// EncodeNode serializes a single node deterministically. When withChildren
// is false, directory entries are omitted (log items carry namespace changes
// as separate dentry records).
func EncodeNode(e *codec.Encoder, n *Node, withChildren bool) {
	e.Uint64(n.Ino)
	e.Byte(byte(n.Kind))
	e.Int(n.Nlink)
	e.Bytes64(n.Data)
	e.String(n.Target)
	e.Int(len(n.Extents))
	for _, ext := range n.Extents {
		e.Int64(ext.Off)
		e.Int64(ext.Len)
	}
	xk := make([]string, 0, len(n.Xattrs))
	for k := range n.Xattrs {
		xk = append(xk, k)
	}
	sort.Strings(xk)
	e.Int(len(xk))
	for _, k := range xk {
		e.String(k)
		e.Bytes64(n.Xattrs[k])
	}
	if !withChildren || n.Children == nil {
		e.Int(0)
		return
	}
	ck := make([]string, 0, len(n.Children))
	for k := range n.Children {
		ck = append(ck, k)
	}
	sort.Strings(ck)
	e.Int(len(ck))
	for _, k := range ck {
		e.String(k)
		e.Uint64(n.Children[k])
	}
}

// DecodeNode deserializes a node written by EncodeNode. Data and the xattr
// values alias the decoder's buffer (Bytes64View), which must therefore
// stay unmodified for as long as the node, or anything sharing its content,
// lives. DecodeTree and SkipTree parse each node with the same code, so all
// three reject the same input.
func DecodeNode(d *codec.Decoder) (*Node, error) {
	n := &Node{}
	if _, _, err := decodeNode(d, n); err != nil {
		return nil, err
	}
	return n, nil
}

// decodeNode reads one node written by EncodeNode into n and returns its
// inode number and kind. With n nil it builds nothing and allocates nothing,
// but consumes the same bytes and fails exactly where decoding would: the
// one parser behind both DecodeTree and SkipTree.
func decodeNode(d *codec.Decoder, n *Node) (uint64, filesys.FileKind, error) {
	build := n != nil
	ino := d.Uint64()
	kind := filesys.FileKind(d.Byte())
	nlink := d.Int()
	data := d.Bytes64View()
	target := decodeString(d, build)
	ne := d.Int()
	if d.Err() != nil {
		return 0, 0, d.Err()
	}
	if ne < 0 || ne > 1<<20 {
		return 0, 0, fmt.Errorf("fstree: implausible extent count: %w", filesys.ErrCorrupted)
	}
	if build {
		*n = Node{Ino: ino, Kind: kind, Nlink: nlink, Data: data, Target: target}
	}
	for range ne {
		ext := filesys.Extent{Off: d.Int64(), Len: d.Int64()}
		if build {
			n.Extents = append(n.Extents, ext)
		}
	}
	nx := d.Int()
	if d.Err() != nil {
		return 0, 0, d.Err()
	}
	if nx < 0 || nx > 1<<20 {
		return 0, 0, fmt.Errorf("fstree: implausible xattr count: %w", filesys.ErrCorrupted)
	}
	if build && nx > 0 {
		n.Xattrs = make(map[string][]byte, min(nx, d.Remaining()))
	}
	for range nx {
		k := decodeString(d, build)
		v := d.Bytes64View()
		if build {
			n.Xattrs[k] = v
		}
	}
	nc := d.Int()
	if d.Err() != nil {
		return 0, 0, d.Err()
	}
	if nc < 0 || nc > 1<<24 {
		return 0, 0, fmt.Errorf("fstree: implausible child count: %w", filesys.ErrCorrupted)
	}
	keepChildren := build && kind == filesys.KindDir
	if keepChildren {
		n.Children = make(map[string]uint64, min(nc, d.Remaining()))
	}
	for range nc {
		k := decodeString(d, keepChildren)
		child := d.Uint64()
		if keepChildren {
			n.Children[k] = child
		}
	}
	if d.Err() != nil {
		return 0, 0, d.Err()
	}
	return ino, kind, nil
}

// decodeString consumes a length-prefixed string, building it only when
// keep is set; Bytes64View runs the same checks as String without copying.
func decodeString(d *codec.Decoder, keep bool) string {
	if keep {
		return d.String()
	}
	d.Bytes64View()
	return ""
}

// Encode serializes the tree deterministically.
func (t *Tree) Encode(e *codec.Encoder) {
	e.Uint64(t.nextIno)
	inos := t.Inos()
	e.Int(len(inos))
	for _, ino := range inos {
		EncodeNode(e, t.nodes[ino], true)
	}
}

// DecodeTree deserializes a tree written by Encode.
func DecodeTree(d *codec.Decoder) (*Tree, error) { return decodeTree(d, true) }

// SkipTree consumes a tree written by Encode without building it. It runs
// every check DecodeTree runs, fails exactly where DecodeTree would, leaves
// d at the same offset, and allocates nothing on success, so a caller can
// validate an image it may never need and decode it later from a copy of d.
func SkipTree(d *codec.Decoder) error {
	_, err := decodeTree(d, false)
	return err
}

// decodeTree decodes a tree, or with build false only checks it.
func decodeTree(d *codec.Decoder, build bool) (*Tree, error) {
	nextIno := d.Uint64()
	count := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if count < 0 || count > 1<<24 {
		return nil, fmt.Errorf("fstree: implausible node count %d: %w", count, filesys.ErrCorrupted)
	}
	var t *Tree
	if build {
		// Every node takes several bytes, so the input left bounds the
		// hint even when count is corrupt.
		t = &Tree{nodes: make(map[uint64]*Node, min(count, d.Remaining())), nextIno: nextIno}
	}
	// A later node with the root's number replaces an earlier one, so the
	// last occurrence decides whether the root is a directory.
	rootIsDir := false
	for range count {
		var n *Node
		if build {
			n = new(Node)
		}
		ino, kind, err := decodeNode(d, n)
		if err != nil {
			return nil, err
		}
		if build {
			t.nodes[ino] = n
		}
		if ino == RootIno {
			rootIsDir = kind == filesys.KindDir
		}
	}
	if !rootIsDir {
		return nil, fmt.Errorf("fstree: missing root: %w", filesys.ErrCorrupted)
	}
	return t, nil
}

// InsertNode places a node into the tree under (parent, name), creating the
// mapping regardless of prior state. Recovery/replay code uses this.
func (t *Tree) InsertNode(n *Node, parentIno uint64, name string) error {
	parent := t.nodes[parentIno]
	if parent == nil || parent.Kind != filesys.KindDir {
		return fmt.Errorf("insert %q: bad parent %d: %w", name, parentIno, filesys.ErrCorrupted)
	}
	if _, exists := t.nodes[n.Ino]; !exists {
		t.nodes[n.Ino] = n
	}
	if old, ok := parent.Children[name]; ok && old != n.Ino {
		// Replacing a different inode: drop the old link.
		if oldNode := t.nodes[old]; oldNode != nil {
			oldNode.Nlink--
			if oldNode.Nlink <= 0 && oldNode.Kind != filesys.KindDir {
				delete(t.nodes, old)
			}
		}
	}
	parent.Children[name] = n.Ino
	if n.Ino >= t.nextIno {
		t.nextIno = n.Ino + 1
	}
	return nil
}

// AddOrphan places a node into the inode table without linking it into the
// namespace (log replay materializes inodes this way before applying dentry
// records). When bumpNext is true the allocation counter is advanced past
// the inode; recovery bugs that fail to do so pass false.
func (t *Tree) AddOrphan(n *Node, bumpNext bool) {
	t.nodes[n.Ino] = n
	if bumpNext && n.Ino >= t.nextIno {
		t.nextIno = n.Ino + 1
	}
}

// RemoveNode deletes the inode entirely (used by replay code).
func (t *Tree) RemoveNode(ino uint64) { delete(t.nodes, ino) }

// SweepUnreachable drops what a recovery left unreachable: every directory
// entry naming no inode, then every inode the root does not reach.
// droppedEntry and droppedNode, when non-nil, are told each entry (its
// directory's inode and its name) and each inode dropped, in no set order.
func (t *Tree) SweepUnreachable(droppedEntry func(dir uint64, name string), droppedNode func(ino uint64)) {
	reachable := make(map[uint64]struct{}, len(t.nodes))
	reachable[RootIno] = struct{}{}
	stack := []uint64{RootIno}
	for len(stack) > 0 {
		ino := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := t.nodes[ino]
		if n == nil || n.Kind != filesys.KindDir {
			continue
		}
		for name, c := range n.Children {
			if t.nodes[c] == nil {
				delete(n.Children, name)
				if droppedEntry != nil {
					droppedEntry(ino, name)
				}
				continue
			}
			if _, ok := reachable[c]; !ok {
				reachable[c] = struct{}{}
				stack = append(stack, c)
			}
		}
	}
	for ino := range t.nodes {
		if _, ok := reachable[ino]; !ok {
			delete(t.nodes, ino)
			if droppedNode != nil {
				droppedNode(ino)
			}
		}
	}
}

// NodeCount returns the number of live inodes.
func (t *Tree) NodeCount() int { return len(t.nodes) }
