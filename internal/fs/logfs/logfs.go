// Package logfs implements the btrfs-like file system under test: a
// copy-on-write main tree committed atomically at sync/unmount, plus a
// per-fsync log (btrfs's tree-log) replayed at mount after a crash.
//
// logfs carries the btrfs crash-consistency bug mechanisms from the paper's
// study (§3, appendix 9.1) and the eight new btrfs bugs CrashMonkey and ACE
// discovered (Table 5, appendix 9.2). Each mechanism is a conditional in the
// fsync logging or log replay path, activated when the simulated kernel
// version falls inside the bug's live range (internal/bugs).
package logfs

import (
	"fmt"
	"sort"
	"strings"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// dirEntryOverhead models the per-entry directory size contribution
// (btrfs's i_size for directories grows by name length plus a fixed
// per-item overhead).
const dirEntryOverhead = 8

func entryWeight(name string) int64 { return int64(len(name)) + dirEntryOverhead }

// format is logfs's on-disk identity: main-tree images in the two regions,
// fsync batches in the log area (btrfs's tree-log).
var format = diskfmt.Format{
	Name:   "logfs",
	Super:  0x4C4F4746, // "LOGF"
	Image:  0x54524545, // "TREE"
	Record: 0x4C424154, // "LBAT"
}

// Options configures a logfs instance.
type Options = diskfmt.Options

// FS is the logfs file-system type (one per configuration; instances are
// mounted on block devices).
type FS struct{ diskfmt.Backend }

// New returns a logfs simulating the given kernel era.
func New(opts Options) *FS { return &FS{diskfmt.NewBackend(format.Name, opts)} }

// Guarantees implements filesys.FileSystem: btrfs provides guarantees well
// beyond POSIX (§5.1), confirmed with its developers, but fsync of a file
// does not promise to persist renames of its ancestor directories.
func (f *FS) Guarantees() filesys.Guarantees {
	return filesys.Guarantees{FdatasyncPersistsDentry: true}
}

// commitImage is the durable content of a commit: the full tree plus the
// per-directory entry-byte accounting (btrfs dir i_size analogue), which
// travels as the image trailer.
type commitImage struct {
	tree       *fstree.Tree
	entryBytes map[uint64]int64
}

func encodeEntryBytes(e *codec.Encoder, eb map[uint64]int64) {
	inos := make([]uint64, 0, len(eb))
	for ino := range eb {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	e.Int(len(inos))
	for _, ino := range inos {
		e.Uint64(ino)
		e.Int64(eb[ino])
	}
}

func decodeEntryBytes(d *codec.Decoder) (map[uint64]int64, error) {
	n := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("logfs: implausible accounting table: %w", filesys.ErrCorrupted)
	}
	eb := make(map[uint64]int64, n)
	for i := 0; i < n; i++ {
		ino := d.Uint64()
		eb[ino] = d.Int64()
	}
	return eb, d.Err()
}

// loadCommit loads the newest committed image and its generation.
func loadCommit(dev blockdev.Device) (uint64, commitImage, error) {
	gen, tree, d, err := format.LoadImage(dev)
	if err != nil {
		return 0, commitImage{}, err
	}
	eb, err := decodeEntryBytes(d)
	if err != nil {
		return 0, commitImage{}, err
	}
	return gen, commitImage{tree: tree, entryBytes: eb}, nil
}

// Mkfs implements filesys.FileSystem.
func (f *FS) Mkfs(dev blockdev.Device) error {
	return format.Mkfs(dev, func(e *codec.Encoder) {
		encodeEntryBytes(e, map[uint64]int64{fstree.RootIno: 0})
	})
}

// Mount implements filesys.FileSystem. After a crash it replays the fsync
// log onto the committed tree; replay failure surfaces as ErrCorrupted
// (the file system is unmountable, cf. Figure 1).
func (f *FS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	gen, img, err := loadCommit(dev)
	if err != nil {
		return nil, err
	}
	var batches [][]logItem
	format.ScanLog(dev, gen, func(d *codec.Decoder) error {
		items, err := decodeBatch(d)
		if err == nil {
			batches = append(batches, items)
		}
		return err
	})
	if len(batches) > 0 {
		img, err = f.replayLog(img, batches)
		if err != nil {
			return nil, fmt.Errorf("logfs: log replay failed: %w", err)
		}
	}

	m := &mounted{
		fs:        f,
		committed: img.tree.Clone(),
		eb:        img.entryBytes,
		ebCommit:  cloneEB(img.entryBytes),
	}
	m.Mounted = diskfmt.NewMounted(format, dev, gen, img.tree, m)
	m.resetTracking()
	if len(batches) > 0 {
		// Recovery commits the replayed state, like btrfs finishing log
		// replay with a transaction commit.
		if err := m.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fsck implements filesys.FileSystem: the btrfs-check analogue. It discards
// the fsync log, recomputes link counts and directory accounting from the
// committed tree, and rewrites the commit. Data persisted only in the log is
// lost, which is why CrashMonkey treats needing fsck as a severe consequence.
func (f *FS) Fsck(dev blockdev.Device) (bool, error) {
	gen, img, err := loadCommit(dev)
	if err != nil {
		return false, err
	}
	diskfmt.RecountLinks(img.tree)
	eb := recomputeEntryBytes(img.tree)
	err = format.WriteImage(dev, gen+1, img.tree, func(e *codec.Encoder) { encodeEntryBytes(e, eb) })
	return err == nil, err
}

func cloneEB(eb map[uint64]int64) map[uint64]int64 {
	out := make(map[uint64]int64, len(eb))
	for k, v := range eb {
		out[k] = v
	}
	return out
}

func recomputeEntryBytes(t *fstree.Tree) map[uint64]int64 {
	eb := map[uint64]int64{}
	t.Walk(func(path string, n *fstree.Node) {
		if n.Kind != filesys.KindDir {
			return
		}
		var total int64
		for name := range n.Children {
			total += entryWeight(name)
		}
		eb[n.Ino] = total
	})
	return eb
}

// parentIn resolves the directory holding path's last component in t, as
// t's own operations resolve it, and returns it with that component.
func parentIn(t *fstree.Tree, path string) (*fstree.Node, string, error) {
	trimmed := strings.Trim(path, "/")
	i := strings.LastIndexByte(trimmed, '/')
	parent, err := t.Lookup(trimmed[:max(i, 0)])
	return parent, trimmed[i+1:], err
}
