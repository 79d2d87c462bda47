// Package filesys defines the interfaces between the B3 testing harness and
// the file systems under test. CrashMonkey treats file systems as black
// boxes (§5.1): it only requires a POSIX-like API (MountedFS), a way to
// format and mount a block device (FileSystem), and a statement of the
// crash-consistency guarantees the file system's developers intend to
// provide (Guarantees, cf. §5.1 "we reached out to developers of each file
// system ... to understand the guarantees provided").
package filesys

import (
	"errors"

	"b3/internal/blockdev"
)

// Standard file-system errors. File systems wrap these so the harness can
// classify failures with errors.Is.
var (
	ErrNotExist  = errors.New("no such file or directory")
	ErrExist     = errors.New("file exists")
	ErrNotDir    = errors.New("not a directory")
	ErrIsDir     = errors.New("is a directory")
	ErrNotEmpty  = errors.New("directory not empty")
	ErrInvalid   = errors.New("invalid argument")
	ErrNoData    = errors.New("no such attribute")
	ErrCorrupted = errors.New("file system corrupted")
	ErrReadOnly  = errors.New("read-only file system")
)

// FileKind is the type of an inode.
type FileKind uint8

const (
	KindRegular FileKind = iota
	KindDir
	KindSymlink
	KindFifo
)

// String returns a short human-readable kind name.
func (k FileKind) String() string {
	switch k {
	case KindRegular:
		return "file"
	case KindDir:
		return "dir"
	case KindSymlink:
		return "symlink"
	case KindFifo:
		return "fifo"
	}
	return "unknown"
}

// FallocMode selects fallocate(2) semantics. The flag combinations mirror
// the ones involved in the studied bugs (KEEP_SIZE, PUNCH_HOLE, ZERO_RANGE).
type FallocMode uint8

const (
	// FallocDefault allocates blocks and extends the file size.
	FallocDefault FallocMode = iota
	// FallocKeepSize allocates blocks without changing the file size.
	FallocKeepSize
	// FallocPunchHole deallocates the byte range (implies KEEP_SIZE).
	FallocPunchHole
	// FallocZeroRange zeroes the range, extending size if needed.
	FallocZeroRange
	// FallocZeroRangeKeepSize zeroes the range without changing the size.
	FallocZeroRangeKeepSize
)

// String returns the conventional flag spelling.
func (m FallocMode) String() string {
	switch m {
	case FallocDefault:
		return "falloc"
	case FallocKeepSize:
		return "falloc -k"
	case FallocPunchHole:
		return "punch_hole"
	case FallocZeroRange:
		return "zero_range"
	case FallocZeroRangeKeepSize:
		return "zero_range -k"
	}
	return "falloc?"
}

// Extent is a block-aligned allocated byte range of a file.
type Extent struct {
	Off int64
	Len int64
}

// Stat is the metadata the AutoChecker compares between oracle and crash
// state (§4.1: "B3 checks for both data and metadata (size, link count, and
// block count) consistency").
type Stat struct {
	Ino    uint64
	Kind   FileKind
	Nlink  int
	Size   int64
	Blocks int64 // 512-byte sectors, like st_blocks
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name string
	Ino  uint64
	Kind FileKind
}

// MountedFS is the POSIX-like view of a mounted file system. All paths are
// absolute, '/'-separated, and are not resolved through symlinks.
type MountedFS interface {
	Create(path string) error
	Mkdir(path string) error
	Symlink(target, linkPath string) error
	Mkfifo(path string) error
	Link(oldPath, newPath string) error
	Unlink(path string) error
	Rmdir(path string) error
	Rename(src, dst string) error
	Truncate(path string, size int64) error

	// Write is a buffered write: data lands in the page cache and is not
	// durable until a persistence operation. Like WriteDirect and MWrite,
	// it never modifies data but may keep it as the file's content, so the
	// caller must never modify data afterwards: pass a fresh buffer or a
	// shared, read-only one, which many writes may take.
	Write(path string, off int64, data []byte) error
	// WriteDirect models an O_DIRECT write: data bypasses the page cache
	// and reaches the device immediately, but metadata (size) updates
	// still follow the file system's usual transaction machinery.
	WriteDirect(path string, off int64, data []byte) error
	// MWrite models a store through an mmap'ed region.
	MWrite(path string, off int64, data []byte) error

	Falloc(path string, mode FallocMode, off, length int64) error
	SetXattr(path, name string, value []byte) error
	RemoveXattr(path, name string) error

	// Persistence operations. Each must issue all necessary block IO and a
	// flush before returning; the harness inserts a checkpoint afterwards.
	Fsync(path string) error
	Fdatasync(path string) error
	MSync(path string, off, length int64) error
	Sync() error

	// Read-side API used by the AutoChecker.
	Stat(path string) (Stat, error)
	// ReadFile returns the file's content, which may be shared with the
	// file system: callers must not modify it. Its capacity equals its
	// length, so an append copies.
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]DirEntry, error)
	ReadLink(path string) (string, error)
	ListXattr(path string) (map[string][]byte, error)
	Extents(path string) ([]Extent, error)

	// Unmount cleanly unmounts: all pending state is made durable.
	Unmount() error
}

// FileSystem formats and mounts instances on block devices.
type FileSystem interface {
	// Name is a short identifier ("logfs", "journalfs", ...).
	Name() string
	// Mkfs formats dev with an empty file system.
	Mkfs(dev blockdev.Device) error
	// Mount mounts dev, running crash recovery if the file system was not
	// cleanly unmounted. A recovery failure returns ErrCorrupted.
	Mount(dev blockdev.Device) (MountedFS, error)
	// Fsck attempts offline repair of dev, as a last resort when Mount
	// fails (§5.1: "fsck is run only if the recovered file system is
	// un-mountable"). It reports whether it changed anything.
	Fsck(dev blockdev.Device) (repaired bool, err error)
	// Guarantees describes the developer-intended crash guarantees that
	// the AutoChecker is entitled to test.
	Guarantees() Guarantees
}

// Guarantees captures what a file system promises will survive a crash
// after a persistence point, beyond what the oracle tracker demands of
// every file system. The common core, which every backend here provides
// (§5.1): fsync of a file persists its data, metadata and every name it
// has, renames of it included, and when a persisted name now belongs to
// another inode, that inode's current name too (the btrfs "drag in the
// renamed inode" behaviour); fsync of a directory persists its own name,
// its entry set, the existence of the inodes its entries name and renames
// out of its subtree; fdatasync persists data, size and allocation beyond
// EOF. The fields are the promises the file systems differ on.
type Guarantees struct {
	// FsyncFilePersistsAncestorRenames: fsync of a file also persists
	// renames of its ancestor directories (F2FS fsync_mode=strict forces a
	// checkpoint; btrfs does not promise this).
	FsyncFilePersistsAncestorRenames bool
	// FdatasyncPersistsDentry: fdatasync of a new file also persists its
	// names, as fsync does (FSCQ's specification does not promise this).
	FdatasyncPersistsDentry bool
}
