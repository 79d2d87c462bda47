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
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
// a fresh value (WriteAt and Resize for Data, which share the pages they
// leave alone; see Content) and never writes through the old one.
// Only the Children and Xattrs maps belong to one node.
//
// A node in a tree is itself shared by every clone of the tree until one of
// them writes it (see Tree.Clone): a node taken from Get, Lookup, Root,
// Walk or WalkNodes is read-only, and a caller that writes a node's fields
// or maps takes it from Edit, or from the mutator that made the change.
type Node struct {
	Ino      uint64
	Kind     filesys.FileKind
	Nlink    int
	Data     Content // regular file content; Data.Len() is the file size
	Extents  []filesys.Extent
	Xattrs   map[string][]byte
	Target   string            // symlink target
	Children map[string]uint64 // directory entries

	// owner is the id of the one tree that may write the node in place,
	// or zero when no tree may (see Tree.id).
	owner uint64
}

// WriteAt stores data at off, zero-filling any gap past the old size. The
// node gets new content (see Content); the old one, and every node sharing
// it, keep their bytes. data is never modified but may be kept — whole,
// when the write covers the file (off 0, at least as long as it), or as
// whole pages of a longer file — so the caller must never modify it
// afterwards.
func (n *Node) WriteAt(off int64, data []byte) {
	n.Data = n.Data.splice(off, off+int64(len(data)), Flat(data), data == nil)
}

// WriteContent stores data's bytes at off, as WriteAt stores a slice's: the
// node keeps data itself when it covers the file, and otherwise every page
// of data that lands whole on a page of the file; it copies only the pages
// it changes in part.
func (n *Node) WriteContent(off int64, data Content) {
	n.Data = n.Data.splice(off, off+data.Len(), data, false)
}

// Resize sets the file size: shrinking keeps the content's first size
// bytes, growing appends zeros (see Content).
func (n *Node) Resize(size int64) { n.Data = n.Data.resize(size) }

// zero stores zeros at [off, end), extending the file if end is past it.
func (n *Node) zero(off, end int64) { n.Data = n.Data.splice(off, end, Content{}, true) }

// Size returns the logical file size.
func (n *Node) Size() int64 {
	if n.Kind == filesys.KindSymlink {
		return int64(len(n.Target))
	}
	return n.Data.Len()
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
// xattr values, owns fresh Children and Xattrs maps, and belongs to no
// tree until one takes it (AddOrphan, InsertNode, Edit).
func (n *Node) Clone() *Node {
	c := *n
	c.Xattrs = maps.Clone(n.Xattrs)
	c.Children = maps.Clone(n.Children)
	c.owner = 0
	return &c
}

// Footprint estimates the heap bytes the node holds beyond the bytes of its
// Data, which a decoded node shares with every node decoded from equal
// pages (the page store holds them, see DecodeContent): the node itself,
// the page table of paged Data, its extents, symlink target, xattr values,
// and the Xattrs and Children maps, each entry charged as if its key were
// short. It reads only lengths, so estimating costs a small fraction of a
// decode.
func (n *Node) Footprint() int {
	const nodeBytes, pageBytes, extentBytes, mapEntryBytes = 128, 24, 16, 64
	c := nodeBytes + pageBytes*len(n.Data.pages) + extentBytes*len(n.Extents) +
		len(n.Target) + mapEntryBytes*(len(n.Xattrs)+len(n.Children))
	for _, v := range n.Xattrs {
		c += len(v)
	}
	return c
}

// Tree is a complete in-memory file system image.
type Tree struct {
	nodes   map[uint64]*Node
	nextIno uint64
	// id names the tree as the owner of the nodes it may write in place;
	// zero means it owns none. A tree takes a fresh id in New, or at its
	// first write after DecodeTree or Clone, and gives it up when cloned,
	// so every id names one tree once and a tree that is only read (one
	// LoadImage shares) is never written, not even here.
	id uint64
}

// treeIDs hands out tree ids; zero is never one.
var treeIDs atomic.Uint64

// New returns a tree containing only an empty root directory.
func New() *Tree {
	t := &Tree{nodes: make(map[uint64]*Node), nextIno: RootIno + 1}
	t.nodes[RootIno] = &Node{
		Ino:      RootIno,
		Kind:     filesys.KindDir,
		Nlink:    2,
		Children: make(map[string]uint64),
		owner:    t.ownerID(),
	}
	return t
}

// ownerID returns the tree's id, taking a fresh one if it has none.
func (t *Tree) ownerID() uint64 {
	if t.id == 0 {
		t.id = treeIDs.Add(1)
	}
	return t.id
}

// Edit returns the node for ino, or nil, ready to be written: the tree's
// own copy, made on the first write after a clone shared the node. Writes
// through a node taken from Get, Lookup, Root or Walk would reach every
// clone sharing it; writes through Edit's reach this tree alone. Like
// every mutator, Edit may replace the node Get returns for ino, so a
// caller holding an earlier node reads it no longer.
func (t *Tree) Edit(ino uint64) *Node {
	n := t.nodes[ino]
	if n == nil || (t.id != 0 && n.owner == t.id) {
		return n
	}
	c := n.Clone()
	c.owner = t.ownerID()
	t.nodes[ino] = c
	return c
}

// take makes n, a node no other tree holds, one the tree may write.
func (t *Tree) take(n *Node) {
	n.owner = t.ownerID()
	t.nodes[n.Ino] = n
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
	parent = t.Edit(parent.Ino)
	switch kind {
	case filesys.KindDir:
		n.Nlink = 2
		n.Children = make(map[string]uint64)
		parent.Nlink++
	case filesys.KindRegular, filesys.KindSymlink, filesys.KindFifo:
		// No payload to initialize: Data starts empty, and Symlink sets the
		// target after addNode.
	}
	t.take(n)
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
	t.Edit(parent.Ino).Children[name] = target.Ino
	target = t.Edit(target.Ino)
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
	if n == nil {
		return nil, false, fmt.Errorf("unlink %q: dangling entry %q: %w", path, name, filesys.ErrCorrupted)
	}
	if n.Kind == filesys.KindDir {
		return nil, false, fmt.Errorf("unlink %q: %w", path, filesys.ErrIsDir)
	}
	delete(t.Edit(parent.Ino).Children, name)
	n = t.Edit(n.Ino)
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
	if n == nil {
		return nil, fmt.Errorf("rmdir %q: dangling entry %q: %w", path, name, filesys.ErrCorrupted)
	}
	if n.Kind != filesys.KindDir {
		return nil, fmt.Errorf("rmdir %q: %w", path, filesys.ErrNotDir)
	}
	if len(n.Children) > 0 {
		return nil, fmt.Errorf("rmdir %q: %w", path, filesys.ErrNotEmpty)
	}
	parent = t.Edit(parent.Ino)
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
		dstParent = t.Edit(dstParent.Ino)
		delete(dstParent.Children, dstName)
		if dstNode.Kind == filesys.KindDir {
			dstParent.Nlink--
			delete(t.nodes, dstIno)
		} else {
			dstNode = t.Edit(dstNode.Ino)
			dstNode.Nlink--
			if dstNode.Nlink <= 0 {
				delete(t.nodes, dstIno)
			}
		}
		replaced = dstNode
	}

	// Own both parents before writing either: they may be one directory.
	srcParent, dstParent = t.Edit(srcParent.Ino), t.Edit(dstParent.Ino)
	delete(srcParent.Children, srcName)
	dstParent.Children[dstName] = srcIno
	if srcNode.Kind == filesys.KindDir && srcParent != dstParent {
		srcParent.Nlink--
		dstParent.Nlink++
	}
	return srcNode, replaced, nil
}

func (t *Tree) isAncestorOf(anc, n *Node) bool {
	if anc.Ino == n.Ino {
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
	n = t.Edit(n.Ino)
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
	n = t.Edit(n.Ino)
	if old := n.Data.Len(); size < old {
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
	n = t.Edit(n.Ino)
	end := off + length
	zero := func() {
		if upto := min(end, n.Data.Len()); off < upto {
			n.zero(off, upto)
		}
	}
	switch mode {
	case filesys.FallocDefault:
		n.AllocRange(off, end)
		n.Resize(max(end, n.Data.Len()))
	case filesys.FallocKeepSize:
		n.AllocRange(off, end)
	case filesys.FallocPunchHole:
		zero()
		n.DeallocRange(off, end)
	case filesys.FallocZeroRange:
		n.zero(off, end)
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
	n = t.Edit(n.Ino)
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
	n = t.Edit(n.Ino)
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

// Reachable reports whether any path resolves to ino, as len(PathsOf(ino))
// > 0 does, without building paths or sorting names: the root always does,
// and any other inode when a directory the root reaches has an entry naming
// it, dangling or not.
func (t *Tree) Reachable(ino uint64) bool {
	return ino == RootIno || t.reaches(t.Root(), ino)
}

// reaches reports whether dir, or a directory below it, has an entry
// naming ino.
func (t *Tree) reaches(dir *Node, ino uint64) bool {
	for _, c := range dir.Children {
		if c == ino {
			return true
		}
		if child := t.nodes[c]; child != nil && child.Kind == filesys.KindDir && t.reaches(child, ino) {
			return true
		}
	}
	return false
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

// WalkNodes visits the nodes Walk visits, as often as Walk does — the root,
// then every node once per path reaching it — but in no set order and
// without building paths or sorting names. fn must not change the
// namespace.
func (t *Tree) WalkNodes(fn func(n *Node)) {
	var walk func(dir *Node)
	walk = func(dir *Node) {
		for _, c := range dir.Children {
			child := t.nodes[c]
			if child == nil {
				continue
			}
			fn(child)
			if child.Kind == filesys.KindDir {
				walk(child)
			}
		}
	}
	fn(t.Root())
	walk(t.Root())
}

// Clone returns a copy of the tree that shares every node with it: only
// the inode table is copied. Nodes are copied on write instead: the first
// time either tree writes a shared node — through a mutator or Edit — it
// installs its own copy (see Node.Clone) and the other tree keeps the old
// one. Clone gives up the source's ownership of its nodes, so from then on
// both trees copy before writing; a source that owns nothing, as a tree
// decoded and shared read-only does, is not written, so such a tree may be
// cloned by many goroutines at once.
func (t *Tree) Clone() *Tree {
	if t.id != 0 {
		t.id = 0
	}
	return &Tree{nodes: maps.Clone(t.nodes), nextIno: t.nextIno}
}

// EncodeNode serializes a single node deterministically. When withChildren
// is false, directory entries are omitted (log items carry namespace changes
// as separate dentry records).
func EncodeNode(e *codec.Encoder, n *Node, withChildren bool) {
	e.Uint64(n.Ino)
	e.Byte(byte(n.Kind))
	e.Int(n.Nlink)
	n.Data.Encode(e)
	e.String(n.Target)
	e.Int(len(n.Extents))
	for _, ext := range n.Extents {
		e.Int64(ext.Off)
		e.Int64(ext.Len)
	}
	scratch := nameScratch.Get().(*[]string)
	names := sortedKeys((*scratch)[:0], n.Xattrs)
	e.Int(len(names))
	for _, k := range names {
		e.String(k)
		e.Bytes64(n.Xattrs[k])
	}
	if names = names[:0]; withChildren {
		names = sortedKeys(names, n.Children)
	}
	e.Int(len(names))
	for _, k := range names {
		e.String(k)
		e.Uint64(n.Children[k])
	}
	clear(names)
	*scratch = names[:0]
	nameScratch.Put(scratch)
}

// nameScratch recycles the sorted name lists EncodeNode writes.
var nameScratch = sync.Pool{New: func() any { return new([]string) }}

// sortedKeys appends m's keys to dst and sorts them.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// DecodeNode deserializes a node written by EncodeNode. Nothing it builds
// aliases the decoder's buffer, which may be reused once it returns: Data
// is made of the page store's pages (DecodeContent), copying only pages the
// store does not hold, and the xattr values are copied. DecodeTree parses
// each node with it, so both reject the same input.
func DecodeNode(d *codec.Decoder) (*Node, error) {
	ino := d.Uint64()
	kind := filesys.FileKind(d.Byte())
	nlink := d.Int()
	data := d.Bytes64View() // interned below, once the node is known good
	target := d.String()
	ne := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if ne < 0 || ne > 1<<20 {
		return nil, fmt.Errorf("fstree: implausible extent count: %w", filesys.ErrCorrupted)
	}
	n := &Node{Ino: ino, Kind: kind, Nlink: nlink, Target: target}
	for range ne {
		n.Extents = append(n.Extents, filesys.Extent{Off: d.Int64(), Len: d.Int64()})
	}
	nx := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nx < 0 || nx > 1<<20 {
		return nil, fmt.Errorf("fstree: implausible xattr count: %w", filesys.ErrCorrupted)
	}
	if nx > 0 {
		n.Xattrs = make(map[string][]byte, min(nx, d.Remaining()))
	}
	for range nx {
		k := d.String()
		v := d.Bytes64View()
		n.Xattrs[k] = append(make([]byte, 0, len(v)), v...)
	}
	nc := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nc < 0 || nc > 1<<24 {
		return nil, fmt.Errorf("fstree: implausible child count: %w", filesys.ErrCorrupted)
	}
	keepChildren := kind == filesys.KindDir
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
		return nil, d.Err()
	}
	n.Data = internContent(data)
	return n, nil
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

// inoScratch recycles the sorted inode lists Encode walks.
var inoScratch = sync.Pool{New: func() any { return new([]uint64) }}

// Encode serializes the tree deterministically, its nodes in inode order.
func (t *Tree) Encode(e *codec.Encoder) {
	e.Uint64(t.nextIno)
	scratch := inoScratch.Get().(*[]uint64)
	inos := (*scratch)[:0]
	for ino := range t.nodes {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	e.Int(len(inos))
	for _, ino := range inos {
		EncodeNode(e, t.nodes[ino], true)
	}
	*scratch = inos
	inoScratch.Put(scratch)
}

// DecodeTree deserializes a tree written by Encode. A later node with the
// root's number replaces an earlier one, so the last occurrence decides
// whether the tree has a root directory.
func DecodeTree(d *codec.Decoder) (*Tree, error) {
	nextIno := d.Uint64()
	count := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if count < 0 || count > 1<<24 {
		return nil, fmt.Errorf("fstree: implausible node count %d: %w", count, filesys.ErrCorrupted)
	}
	// Every node takes several bytes, so the input left bounds the hint even
	// when count is corrupt.
	t := &Tree{nodes: make(map[uint64]*Node, min(count, d.Remaining())), nextIno: nextIno}
	for range count {
		n, err := DecodeNode(d)
		if err != nil {
			return nil, err
		}
		t.nodes[n.Ino] = n
	}
	if root := t.nodes[RootIno]; root == nil || root.Kind != filesys.KindDir {
		return nil, fmt.Errorf("fstree: missing root: %w", filesys.ErrCorrupted)
	}
	return t, nil
}

// InsertNode places a node into the tree under (parent, name), creating the
// mapping regardless of prior state. Recovery/replay code uses this. A node
// the tree did not hold becomes the tree's, which may write it in place, so
// it must be the caller's own: fresh, or a clone.
func (t *Tree) InsertNode(n *Node, parentIno uint64, name string) error {
	parent := t.nodes[parentIno]
	if parent == nil || parent.Kind != filesys.KindDir {
		return fmt.Errorf("insert %q: bad parent %d: %w", name, parentIno, filesys.ErrCorrupted)
	}
	if _, exists := t.nodes[n.Ino]; !exists {
		t.take(n)
	}
	parent = t.Edit(parent.Ino)
	if old, ok := parent.Children[name]; ok && old != n.Ino {
		// Replacing a different inode: drop the old link.
		if oldNode := t.Edit(old); oldNode != nil {
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
// the inode; recovery bugs that fail to do so pass false. n becomes the
// tree's, which may write it in place, so it must be the caller's own:
// fresh, or a clone.
func (t *Tree) AddOrphan(n *Node, bumpNext bool) {
	t.take(n)
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
		// Ranging over n's map while deleting from its writable copy's is
		// safe: the copy is n itself or a map of its own.
		for name, c := range n.Children {
			if t.nodes[c] == nil {
				delete(t.Edit(ino).Children, name)
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

// Footprint estimates the heap bytes the tree holds beyond the content its
// nodes share (see Node.Footprint), its inode table included.
func (t *Tree) Footprint() int {
	const tableEntryBytes = 32
	c := 0
	for _, n := range t.nodes {
		c += tableEntryBytes + n.Footprint()
	}
	return c
}

// NodeCount returns the number of live inodes.
func (t *Tree) NodeCount() int { return len(t.nodes) }
