package logfs

import (
	"bytes"
	"errors"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
)

// harness runs a workload against a fresh logfs over a recording device and
// produces the crash state at the last checkpoint.
type harness struct {
	t    *testing.T
	fs   *FS
	base *blockdev.MemDisk
	rec  *blockdev.Recorder
	m    filesys.MountedFS
}

func newHarness(t *testing.T, fs *FS) *harness {
	t.Helper()
	base := blockdev.NewMemDisk(8192)
	if err := fs.Mkfs(base); err != nil {
		t.Fatal(err)
	}
	rec := blockdev.NewRecorder(blockdev.NewSnapshot(base))
	m, err := fs.Mount(rec)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, fs: fs, base: base, rec: rec, m: m}
}

func (h *harness) do(err error) {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
}

// cp records a checkpoint right after a persistence operation.
func (h *harness) cp() { h.rec.Checkpoint() }

// crashMount replays recorded IO to the last checkpoint and mounts the
// resulting crash state.
func (h *harness) crashMount() (filesys.MountedFS, error) {
	h.t.Helper()
	crash := blockdev.NewSnapshot(h.base)
	n := h.rec.Checkpoints()
	if n == 0 {
		h.t.Fatal("no checkpoints recorded")
	}
	if _, err := blockdev.ReplayToCheckpoint(crash, h.rec.Log(), n); err != nil {
		h.t.Fatal(err)
	}
	return h.fs.Mount(crash)
}

func (h *harness) mustCrashMount() filesys.MountedFS {
	h.t.Helper()
	m, err := h.crashMount()
	if err != nil {
		h.t.Fatalf("crash state unmountable: %v", err)
	}
	return m
}

func fixed() *FS { return New(Options{BugOverride: map[string]bool{}}) }

func withBugs(ids ...string) *FS {
	over := map[string]bool{}
	for _, id := range ids {
		over[id] = true
	}
	return New(Options{BugOverride: over})
}

func exists(m filesys.MountedFS, path string) bool {
	_, err := m.Stat(path)
	return err == nil
}

func mustStat(t *testing.T, m filesys.MountedFS, path string) filesys.Stat {
	t.Helper()
	st, err := m.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return st
}

// ---- baseline behaviour -------------------------------------------------

func TestMkfsMountEmpty(t *testing.T) {
	fs := fixed()
	dev := blockdev.NewMemDisk(8192)
	if err := fs.Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	m, err := fs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := m.ReadDir("/")
	if err != nil || len(ents) != 0 {
		t.Fatalf("root not empty: %v %v", ents, err)
	}
	if err := m.Unmount(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmountPersistsEverything(t *testing.T) {
	fs := fixed()
	dev := blockdev.NewMemDisk(8192)
	h := fs.Mkfs(dev)
	if h != nil {
		t.Fatal(h)
	}
	m, err := fs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir("/A"); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("/A/foo"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write("/A/foo", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetXattr("/A/foo", "user.k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmount(); err != nil {
		t.Fatal(err)
	}

	m2, err := fs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m2.ReadFile("/A/foo")
	if err != nil || string(data) != "payload" {
		t.Fatalf("after remount: %q %v", data, err)
	}
	xa, err := m2.ListXattr("/A/foo")
	if err != nil || string(xa["user.k"]) != "v" {
		t.Fatalf("xattr after remount: %v %v", xa, err)
	}
}

func TestCrashWithoutPersistenceLosesData(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, []byte("x")))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Create("/bar")) // never persisted
	m := h.mustCrashMount()
	if !exists(m, "/foo") {
		t.Fatal("synced file lost")
	}
	if exists(m, "/bar") {
		t.Fatal("unpersisted file survived the crash (nothing was written)")
	}
}

func TestFsyncNewFilePersistsDentryAndData(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Write("/A/foo", 0, []byte("hello")))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	m := h.mustCrashMount()
	data, err := m.ReadFile("/A/foo")
	if err != nil || string(data) != "hello" {
		t.Fatalf("fsynced file after crash: %q %v", data, err)
	}
	// And the recovered FS is fully usable.
	if err := m.Create("/A/new"); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
}

func TestFsyncPersistsAllHardLinks(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/B"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Link("/A/foo", "/B/bar"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	m := h.mustCrashMount()
	if !exists(m, "/A/foo") || !exists(m, "/B/bar") {
		t.Fatal("hard links not persisted by fsync (fixed FS must persist all names)")
	}
	if st := mustStat(t, m, "/A/foo"); st.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", st.Nlink)
	}
}

func TestFsyncPersistsOwnRename(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, []byte("z")))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/foo", "/bar"))
	h.do(h.m.Fsync("/bar"))
	h.cp()
	m := h.mustCrashMount()
	if exists(m, "/foo") || !exists(m, "/bar") {
		t.Fatal("fsync of renamed file must persist the rename")
	}
}

func TestFsyncDirPersistsEntriesAndRemovals(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/old"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Create("/A/new"))
	h.do(h.m.Unlink("/A/old"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	m := h.mustCrashMount()
	if !exists(m, "/A/new") {
		t.Fatal("dir fsync must persist new entries")
	}
	if exists(m, "/A/old") {
		t.Fatal("dir fsync must persist removals")
	}
}

func TestRecoveredDirIsRemovable(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Link("/A/foo", "/A/bar"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	m := h.mustCrashMount()
	for _, p := range []string{"/A/foo", "/A/bar"} {
		if err := m.Unlink(p); err != nil {
			t.Fatalf("unlink %s: %v", p, err)
		}
	}
	if err := m.Rmdir("/A"); err != nil {
		t.Fatalf("emptied dir must be removable on a fixed FS: %v", err)
	}
}

func TestFsyncIsNoOpWhenClean(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/foo"))
	h.do(h.m.Fsync("/foo"))
	before := h.rec.WritesRecorded()
	h.do(h.m.Fsync("/foo"))
	if h.rec.WritesRecorded() != before {
		t.Fatal("second fsync of a clean file should write nothing")
	}
}

// ---- appendix 9.1: reproduced bug mechanisms ----------------------------

// Workload 1 [49]: fsync of a recreated file after rename loses the
// renamed file.
func runW1(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Write("/A/foo", 0, bytes.Repeat([]byte{1}, 16384)))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/A/foo", "/A/bar"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Write("/A/foo", 0, bytes.Repeat([]byte{2}, 4096)))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW1RenameOldFileLost(t *testing.T) {
	m := runW1(t, withBugs("btrfs-rename-old-file-lost-on-new-fsync"))
	if !exists(m, "/A/foo") {
		t.Fatal("fsynced file must exist")
	}
	if exists(m, "/A/bar") {
		t.Fatal("bug active: renamed file should be lost")
	}
	mFixed := runW1(t, fixed())
	if !exists(mFixed, "/A/bar") || !exists(mFixed, "/A/foo") {
		t.Fatal("fixed: both files must survive")
	}
	if st := mustStat(t, mFixed, "/A/bar"); st.Size != 16384 {
		t.Fatalf("fixed: bar size = %d, want 16384", st.Size)
	}
}

// Workload 3 [51]: linking a special file then fsync makes replay fail.
func runW3(t *testing.T, fs *FS) (filesys.MountedFS, error) {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkfifo("/A/foo"))
	h.do(h.m.Create("/A/dummy"))
	h.do(h.m.Fsync("/A/dummy"))
	h.cp()
	h.do(h.m.Rename("/A/foo", "/A/bar"))
	h.do(h.m.Link("/A/bar", "/A/foo"))
	h.do(h.m.Unlink("/A/dummy"))
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	return h.crashMount()
}

func TestW3SpecialFileReplayFail(t *testing.T) {
	if _, err := runW3(t, withBugs("btrfs-special-file-link-replay-fail")); !errors.Is(err, filesys.ErrCorrupted) {
		t.Fatalf("bug active: expected unmountable, got %v", err)
	}
	m, err := runW3(t, fixed())
	if err != nil {
		t.Fatalf("fixed: mount failed: %v", err)
	}
	if !exists(m, "/A/foo") || !exists(m, "/A/bar") {
		t.Fatal("fixed: fifo names missing")
	}
}

// Workload 5 [52] (Figure 1): unlink+link combination makes the log replay
// unlink a name twice; the file system becomes unmountable.
func runW5(t *testing.T, fs *FS) (filesys.MountedFS, error) {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Link("/A/foo", "/A/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Unlink("/A/bar"))
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	return h.crashMount()
}

func TestW5Figure1Unmountable(t *testing.T) {
	if _, err := runW5(t, withBugs("btrfs-link-unlink-replay-fail")); !errors.Is(err, filesys.ErrCorrupted) {
		t.Fatalf("bug active: expected unmountable, got %v", err)
	}
	m, err := runW5(t, fixed())
	if err != nil {
		t.Fatalf("fixed: mount failed: %v", err)
	}
	if !exists(m, "/A/bar") || !exists(m, "/A/foo") {
		t.Fatal("fixed: files missing")
	}
	if st := mustStat(t, m, "/A/bar"); st.Nlink != 1 {
		t.Fatalf("fixed: new bar nlink = %d", st.Nlink)
	}
}

// Workload 6 [8]: after recovery the inode counter collides with replayed
// inodes; no new files can be created.
func runW6(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW6CannotCreateFiles(t *testing.T) {
	m := runW6(t, withBugs("btrfs-objectid-not-restored"))
	if err := m.Create("/A/new"); !errors.Is(err, filesys.ErrExist) {
		t.Fatalf("bug active: expected EEXIST-style failure, got %v", err)
	}
	mFixed := runW6(t, fixed())
	if err := mFixed.Create("/A/new"); err != nil {
		t.Fatalf("fixed: create failed: %v", err)
	}
}

// Workload 7 [44]: fsync logging a deletion in a directory destroys files
// merely renamed out of it.
func runW7(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/B"))
	h.do(h.m.Mkdir("/C"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Link("/A/foo", "/B/foo_link"))
	h.do(h.m.Create("/B/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Unlink("/B/foo_link"))
	h.do(h.m.Rename("/B/bar", "/C/bar"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW7ReplayDropsRenamedFromDir(t *testing.T) {
	m := runW7(t, withBugs("btrfs-replay-drops-renamed-from-dir"))
	if exists(m, "/B/bar") || exists(m, "/C/bar") {
		t.Fatal("bug active: bar should be lost from both directories")
	}
	mFixed := runW7(t, fixed())
	if !exists(mFixed, "/B/bar") && !exists(mFixed, "/C/bar") {
		t.Fatal("fixed: bar must survive at one location")
	}
}

// Workload 8 [48]: fsync of a recreated directory destroys the renamed
// directory's contents.
func runW8(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/A/B"))
	h.do(h.m.Mkdir("/A/C"))
	h.do(h.m.Create("/A/B/foo"))
	h.do(h.m.Create("/A/B/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/A/B", "/A/C"))
	h.do(h.m.Mkdir("/A/B"))
	h.do(h.m.Fsync("/A/B"))
	h.cp()
	return h.mustCrashMount()
}

func TestW8RenamedDirContentsMissing(t *testing.T) {
	m := runW8(t, withBugs("btrfs-new-dir-replay-drops-renamed-subtree"))
	if !exists(m, "/A/B") {
		t.Fatal("fsynced new dir must exist")
	}
	if exists(m, "/A/C/foo") || exists(m, "/A/B/foo") {
		t.Fatal("bug active: renamed directory contents should be lost")
	}
	mFixed := runW8(t, fixed())
	if !exists(mFixed, "/A/B") || !exists(mFixed, "/A/C/foo") || !exists(mFixed, "/A/C/bar") {
		t.Fatal("fixed: new dir and renamed contents must both survive")
	}
}

// Workload 9 [45]: entries moved between directories persist in both.
func runW9(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/B"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Mkdir("/B/C"))
	h.do(h.m.Create("/B/baz"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Link("/A/foo", "/A/bar"))
	h.do(h.m.Rename("/B/baz", "/A/baz"))
	h.do(h.m.Rename("/B/C", "/A/C"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW9EntriesInBothDirectories(t *testing.T) {
	m := runW9(t, withBugs("btrfs-moved-entries-persist-in-both"))
	if !(exists(m, "/A/baz") && exists(m, "/B/baz")) {
		t.Fatal("bug active: baz should appear in both directories")
	}
	mFixed := runW9(t, fixed())
	inA, inB := exists(mFixed, "/A/baz"), exists(mFixed, "/B/baz")
	if inA == inB {
		t.Fatalf("fixed: baz must be in exactly one directory (A=%v B=%v)", inA, inB)
	}
}

// Workload 10 [26]: symlink persisted by parent-dir fsync is empty.
func runW10(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Symlink("/foo", "/A/bar"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	return h.mustCrashMount()
}

func TestW10EmptySymlink(t *testing.T) {
	m := runW10(t, withBugs("btrfs-dir-fsync-empty-symlink"))
	target, err := m.ReadLink("/A/bar")
	if err != nil {
		t.Fatalf("symlink missing: %v", err)
	}
	if target != "" {
		t.Fatalf("bug active: expected empty symlink, got %q", target)
	}
	mFixed := runW10(t, fixed())
	target, err = mFixed.ReadLink("/A/bar")
	if err != nil || target != "/foo" {
		t.Fatalf("fixed: symlink = %q, %v", target, err)
	}
}

// Workload 11 [47]: fsync after rename loses the new occupant of the old
// name.
func runW11(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	h.do(h.m.Rename("/A/foo", "/A/bar"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	return h.mustCrashMount()
}

func TestW11NewOccupantLost(t *testing.T) {
	m := runW11(t, withBugs("btrfs-rename-fsync-loses-new-occupant"))
	if !exists(m, "/A/bar") {
		t.Fatal("fsynced renamed file must exist")
	}
	if exists(m, "/A/foo") {
		t.Fatal("bug active: the new occupant of the old name should be lost")
	}
	mFixed := runW11(t, fixed())
	if !exists(mFixed, "/A/bar") || !exists(mFixed, "/A/foo") {
		t.Fatal("fixed: both files must survive")
	}
}

// Workload 12 [40]: only the first of overlapping punched holes survives.
func runW12(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{7}, 132*1024)))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Falloc("/foo", filesys.FallocPunchHole, 32*1024, 96*1024))  // 32K-128K
	h.do(h.m.Falloc("/foo", filesys.FallocPunchHole, 64*1024, 128*1024)) // 64K-192K
	h.do(h.m.Falloc("/foo", filesys.FallocPunchHole, 96*1024, 32*1024))  // 96K-128K
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW12OverlappingPunchHoles(t *testing.T) {
	holeSectors := func(m filesys.MountedFS) int64 {
		st := mustStat(t, m, "/foo")
		return (st.Size+511)/512 - st.Blocks
	}
	m := runW12(t, withBugs("btrfs-overlapping-punch-holes-lost"))
	mFixed := runW12(t, fixed())
	// Fixed: hole 32K..132K (96K-192K clipped by size 132K) => more
	// deallocated than the buggy replay which only kept the first punch.
	if holeSectors(m) >= holeSectors(mFixed) {
		t.Fatalf("bug active: hole should be smaller (bug %d sectors vs fixed %d)",
			holeSectors(m), holeSectors(mFixed))
	}
}

// Workload 13 [42]: stale directory entries after replaying a hard-link add.
func runW13(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Link("/A/foo", "/A/foo_link"))
	h.do(h.m.Link("/A/bar", "/A/bar_link"))
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	return h.mustCrashMount()
}

func emptyAndRmdir(m filesys.MountedFS, dir string) error {
	ents, err := m.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := dir + "/" + e.Name
		if e.Kind == filesys.KindDir {
			if err := emptyAndRmdir(m, p); err != nil {
				return err
			}
			continue
		}
		if err := m.Unlink(p); err != nil {
			return err
		}
	}
	return m.Rmdir(dir)
}

func TestW13UnremovableDir(t *testing.T) {
	m := runW13(t, withBugs("btrfs-replay-add-accounting"))
	if err := emptyAndRmdir(m, "/A"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("bug active: expected un-removable dir, got %v", err)
	}
	mFixed := runW13(t, fixed())
	if err := emptyAndRmdir(mFixed, "/A"); err != nil {
		t.Fatalf("fixed: dir must be removable: %v", err)
	}
}

// Workload 14 [35]: the second ranged msync is not persisted.
func runW14(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{1}, 256*1024)))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.MWrite("/foo", 0, bytes.Repeat([]byte{2}, 4096)))
	h.do(h.m.MWrite("/foo", 252*1024, bytes.Repeat([]byte{3}, 4096)))
	h.do(h.m.MSync("/foo", 0, 64*1024))
	h.cp()
	h.do(h.m.MSync("/foo", 192*1024, 64*1024))
	h.cp()
	return h.mustCrashMount()
}

func TestW14SecondMsyncLost(t *testing.T) {
	m := runW14(t, withBugs("btrfs-ranged-msync-second-lost"))
	data, err := m.ReadFile("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 2 {
		t.Fatal("first msync range must persist")
	}
	if data[252*1024] != 1 {
		t.Fatalf("bug active: second msync write should be lost, got %d", data[252*1024])
	}
	mFixed := runW14(t, fixed())
	data, err = mFixed.ReadFile("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 2 || data[252*1024] != 3 {
		t.Fatal("fixed: both msync ranges must persist")
	}
}

// Workload 15 [41]: removing a linked file then fsync leaves the directory
// un-removable.
func runW15(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Link("/A/foo", "/A/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Unlink("/A/bar"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW15UnremovableDir(t *testing.T) {
	m := runW15(t, withBugs("btrfs-replay-del-accounting"))
	if err := emptyAndRmdir(m, "/A"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("bug active: expected un-removable dir, got %v", err)
	}
	mFixed := runW15(t, fixed())
	if err := emptyAndRmdir(mFixed, "/A"); err != nil {
		t.Fatalf("fixed: %v", err)
	}
}

// Workload 16 [38]: fsync after adding a hard link loses the file data.
func runW16(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Write("/A/foo", 0, bytes.Repeat([]byte{9}, 16384)))
	h.do(h.m.Link("/A/foo", "/A/bar"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW16DataLostAfterLink(t *testing.T) {
	m := runW16(t, withBugs("btrfs-fsync-after-link-data-lost"))
	if st := mustStat(t, m, "/A/foo"); st.Size != 0 {
		t.Fatalf("bug active: expected size 0, got %d", st.Size)
	}
	mFixed := runW16(t, fixed())
	if st := mustStat(t, mFixed, "/A/foo"); st.Size != 16384 {
		t.Fatalf("fixed: size = %d, want 16384", st.Size)
	}
}

// Workload 17 [37]: punching a hole in a partial page is not persisted.
func runW17(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{5}, 16384)))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	h.do(h.m.Falloc("/foo", filesys.FallocPunchHole, 8000, 4096))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW17PartialPagePunchNotPersisted(t *testing.T) {
	m := runW17(t, withBugs("btrfs-partial-page-punch-not-logged"))
	data, err := m.ReadFile("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if data[8000] == 0 {
		t.Fatal("bug active: the punched bytes should have resurrected")
	}
	mFixed := runW17(t, fixed())
	data, err = mFixed.ReadFile("/foo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 8000; i < 8000+4096; i++ {
		if data[i] != 0 {
			t.Fatalf("fixed: byte %d = %d, want 0", i, data[i])
		}
	}
}

// Workload 18 [43]: removed xattrs resurrect on log replay.
func runW18(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.SetXattr("/foo", "user.u1", []byte("val1")))
	h.do(h.m.SetXattr("/foo", "user.u2", []byte("val2")))
	h.do(h.m.SetXattr("/foo", "user.u3", []byte("val3")))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.RemoveXattr("/foo", "user.u2"))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW18XattrResurrects(t *testing.T) {
	m := runW18(t, withBugs("btrfs-xattr-delete-replay"))
	xa, err := m.ListXattr("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := xa["user.u2"]; !ok {
		t.Fatal("bug active: removed xattr should resurrect")
	}
	mFixed := runW18(t, fixed())
	xa, err = mFixed.ListXattr("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := xa["user.u2"]; ok {
		t.Fatal("fixed: removed xattr must stay removed")
	}
	if len(xa) != 2 {
		t.Fatalf("fixed: xattrs = %v", xa)
	}
}

// Workload 19 [23]: unlink of one of multiple hard links + fsync leaves the
// directory un-removable.
func runW19(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Link("/A/foo", "/A/bar1"))
	h.do(h.m.Link("/A/foo", "/A/bar2"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Unlink("/A/bar2"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW19UnremovableDirMultiLink(t *testing.T) {
	m := runW19(t, withBugs("btrfs-replay-unlink-accounting"))
	if err := emptyAndRmdir(m, "/A"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("bug active: expected un-removable dir, got %v", err)
	}
	mFixed := runW19(t, fixed())
	if err := emptyAndRmdir(mFixed, "/A"); err != nil {
		t.Fatalf("fixed: %v", err)
	}
}

// Workload 20 [46]: directory fsync after a rename out of its subtree.
func runW20(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/A/B"))
	h.do(h.m.Mkdir("/C"))
	h.do(h.m.Create("/A/B/foo"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/A/B/foo", "/C/foo"))
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	return h.mustCrashMount()
}

func TestW20SubtreeRenameNotLogged(t *testing.T) {
	m := runW20(t, withBugs("btrfs-dir-fsync-subtree-rename-not-logged"))
	if !exists(m, "/A/B/foo") || exists(m, "/C/foo") {
		t.Fatal("bug active: foo should remain at the old location")
	}
	if !exists(m, "/A/bar") {
		t.Fatal("new entry in fsynced dir must persist")
	}
	mFixed := runW20(t, fixed())
	if !exists(mFixed, "/C/foo") || exists(mFixed, "/A/B/foo") {
		t.Fatal("fixed: rename out of the subtree must be persisted")
	}
}

// Workload 21 [34]: directory size accounting after fsync on dir + file.
func runW21(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	return h.mustCrashMount()
}

func TestW21DirSizeAccounting(t *testing.T) {
	m := runW21(t, withBugs("btrfs-dir-fsync-size-accounting"))
	if err := emptyAndRmdir(m, "/A"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("bug active: expected un-removable dir, got %v", err)
	}
	mFixed := runW21(t, fixed())
	if err := emptyAndRmdir(mFixed, "/A"); err != nil {
		t.Fatalf("fixed: %v", err)
	}
}

// Workload 22 [5]: fsync of a renamed file does not persist the rename.
func runW22(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{4}, 4096)))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/foo", "/bar"))
	h.do(h.m.Fsync("/bar"))
	h.cp()
	return h.mustCrashMount()
}

func TestW22RenameNotPersisted(t *testing.T) {
	m := runW22(t, withBugs("btrfs-fsync-renamed-file-not-logged"))
	if !exists(m, "/foo") || exists(m, "/bar") {
		t.Fatal("bug active: file should remain at the old name")
	}
	mFixed := runW22(t, fixed())
	if exists(mFixed, "/foo") || !exists(mFixed, "/bar") {
		t.Fatal("fixed: rename must be persisted by fsync")
	}
}

// Workload 23 [39]: appended data lost when the file has hard links.
func runW23(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{1}, 32*1024)))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Link("/foo", "/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Write("/foo", 32*1024, bytes.Repeat([]byte{2}, 32*1024)))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestW23AppendAfterLinkLost(t *testing.T) {
	m := runW23(t, withBugs("btrfs-append-after-link-lost"))
	if st := mustStat(t, m, "/foo"); st.Size != 32*1024 {
		t.Fatalf("bug active: size = %d, want 32K", st.Size)
	}
	mFixed := runW23(t, fixed())
	if st := mustStat(t, mFixed, "/foo"); st.Size != 64*1024 {
		t.Fatalf("fixed: size = %d, want 64K", st.Size)
	}
}

// Workload 24 [6]: fsync on directory after renaming a file into it.
func runW24(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/foo", "/A/bar"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	return h.mustCrashMount()
}

func TestW24RenameIntoDirAccounting(t *testing.T) {
	m := runW24(t, withBugs("btrfs-rename-into-dir-accounting"))
	if err := emptyAndRmdir(m, "/A"); !errors.Is(err, filesys.ErrNotEmpty) {
		t.Fatalf("bug active: expected un-removable dir, got %v", err)
	}
	mFixed := runW24(t, fixed())
	if err := emptyAndRmdir(mFixed, "/A"); err != nil {
		t.Fatalf("fixed: %v", err)
	}
}

// ---- appendix 9.2: new bug mechanisms ------------------------------------

// New bug 1 (Table 5 #1): rename atomicity broken, file disappears.
func runN1(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Fsync("/A/bar"))
	h.cp()
	h.do(h.m.Mkdir("/B"))
	h.do(h.m.Create("/B/bar"))
	h.do(h.m.Rename("/B/bar", "/A/bar"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	h.do(h.m.Fsync("/A"))
	h.cp()
	return h.mustCrashMount()
}

func TestN1RenameAtomicityTargetLost(t *testing.T) {
	m := runN1(t, withBugs("btrfs-rename-atomicity-target-lost"))
	if !exists(m, "/A/foo") {
		t.Fatal("fsynced foo must exist")
	}
	if exists(m, "/A/bar") || exists(m, "/B/bar") {
		t.Fatal("bug active: bar should disappear from both locations")
	}
	mFixed := runN1(t, fixed())
	if !exists(mFixed, "/A/bar") && !exists(mFixed, "/B/bar") {
		t.Fatal("fixed: bar must survive at one location")
	}
}

// New bug 2 (Table 5 #2): rename atomicity broken, file in both locations.
func runN2(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/A/C"))
	h.do(h.m.Rename("/A/C", "/B"))
	h.do(h.m.Create("/B/bar"))
	h.do(h.m.Fsync("/B/bar"))
	h.cp()
	h.do(h.m.Rename("/B/bar", "/A/bar"))
	h.do(h.m.Rename("/A", "/B"))
	h.do(h.m.Fsync("/B/bar"))
	h.cp()
	return h.mustCrashMount()
}

func TestN2FileInBothLocations(t *testing.T) {
	m := runN2(t, withBugs("btrfs-rename-atomicity-both-locations"))
	locations := 0
	for _, p := range []string{"/A/bar", "/B/bar"} {
		if exists(m, p) {
			locations++
		}
	}
	if locations != 2 {
		t.Fatalf("bug active: bar should be visible at both locations, found %d", locations)
	}
	mFixed := runN2(t, fixed())
	locations = 0
	for _, p := range []string{"/A/bar", "/B/bar"} {
		if exists(mFixed, p) {
			locations++
		}
	}
	if locations != 1 {
		t.Fatalf("fixed: bar must be at exactly one location, found %d", locations)
	}
}

// New bug 3 (Table 5 #3): directory not persisted by fsync.
func runN3(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/B"))
	h.do(h.m.Mkdir("/A/C"))
	h.do(h.m.Create("/B/foo"))
	h.do(h.m.Fsync("/B/foo"))
	h.cp()
	h.do(h.m.Link("/B/foo", "/A/C/foo"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	return h.mustCrashMount()
}

func TestN3PersistedDirMissing(t *testing.T) {
	m := runN3(t, withBugs("btrfs-dir-fsync-new-subdir-items-missing"))
	if !exists(m, "/B/foo") {
		t.Fatal("fsynced file must exist")
	}
	if exists(m, "/A/C") {
		t.Fatal("bug active: subdirectory C should be missing")
	}
	mFixed := runN3(t, fixed())
	if !exists(mFixed, "/A/C/foo") {
		t.Fatal("fixed: fsync(A) must persist C and its link")
	}
}

// New bug 4 (Table 5 #4): rename not persisted by fsync of the renamed dir.
func runN4(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/A", "/B"))
	h.do(h.m.Create("/B/foo"))
	h.do(h.m.Fsync("/B/foo"))
	h.cp()
	h.do(h.m.Fsync("/B"))
	h.cp()
	return h.mustCrashMount()
}

func TestN4RenamedDirNotLogged(t *testing.T) {
	m := runN4(t, withBugs("btrfs-fsync-renamed-dir-not-logged"))
	if !exists(m, "/A/foo") || exists(m, "/B") {
		t.Fatal("bug active: foo should appear under the old directory name")
	}
	mFixed := runN4(t, fixed())
	if !exists(mFixed, "/B/foo") || exists(mFixed, "/A") {
		t.Fatal("fixed: fsync(B) must persist the dir rename")
	}
}

// New bug 5 (Table 5 #5): hard links not persisted by fsync. The mechanism
// requires the single-name logging restriction (N7) to be live too, as it
// was in every kernel carrying this bug.
func runN5(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Mkdir("/B"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Link("/A/foo", "/B/foo"))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	h.do(h.m.Fsync("/B/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestN5HardLinkNotPersisted(t *testing.T) {
	m := runN5(t, withBugs(
		"btrfs-fsync-skips-new-name-already-logged",
		"btrfs-fsync-logs-single-name"))
	if !exists(m, "/A/foo") {
		t.Fatal("original name must exist")
	}
	if exists(m, "/B/foo") {
		t.Fatal("bug active: second hard link should be missing")
	}
	mFixed := runN5(t, fixed())
	if !exists(mFixed, "/A/foo") || !exists(mFixed, "/B/foo") {
		t.Fatal("fixed: both names must survive")
	}
}

// New bug 6 (Table 5 #6): entry missing after fsync on directory.
func runN6(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/test"))
	h.do(h.m.Mkdir("/test/A"))
	h.do(h.m.Create("/test/foo"))
	h.do(h.m.Create("/test/A/foo"))
	h.do(h.m.Fsync("/test/A/foo"))
	h.cp()
	h.do(h.m.Fsync("/test"))
	h.cp()
	return h.mustCrashMount()
}

func TestN6DirEntryMissing(t *testing.T) {
	m := runN6(t, withBugs("btrfs-dir-fsync-skips-unlogged-children"))
	if !exists(m, "/test/A/foo") {
		t.Fatal("fsynced file must exist")
	}
	if exists(m, "/test/foo") {
		t.Fatal("bug active: test/foo should be missing despite fsync(test)")
	}
	mFixed := runN6(t, fixed())
	if !exists(mFixed, "/test/foo") || !exists(mFixed, "/test/A/foo") {
		t.Fatal("fixed: both files must survive")
	}
}

// New bug 7 (Table 5 #7): fsync does not persist all the file's paths.
func runN7(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Link("/foo", "/A/bar"))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestN7FsyncSingleName(t *testing.T) {
	m := runN7(t, withBugs("btrfs-fsync-logs-single-name"))
	if !exists(m, "/foo") {
		t.Fatal("creation name must exist")
	}
	if exists(m, "/A/bar") {
		t.Fatal("bug active: the hard link should be missing")
	}
	mFixed := runN7(t, fixed())
	if !exists(mFixed, "/foo") || !exists(mFixed, "/A/bar") {
		t.Fatal("fixed: all paths must survive fsync")
	}
}

// New bug 8 (Table 5 #8): allocated blocks beyond EOF lost after fsync.
func runN8(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{1}, 16384)))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	h.do(h.m.Falloc("/foo", filesys.FallocKeepSize, 16384, 4096))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.mustCrashMount()
}

func TestN8BlocksBeyondEOFLost(t *testing.T) {
	m := runN8(t, withBugs("btrfs-fsync-drops-beyond-eof-extents"))
	if st := mustStat(t, m, "/foo"); st.Blocks != 32 {
		t.Fatalf("bug active: blocks = %d sectors, want 32", st.Blocks)
	}
	mFixed := runN8(t, fixed())
	if st := mustStat(t, mFixed, "/foo"); st.Blocks != 40 {
		t.Fatalf("fixed: blocks = %d sectors, want 40", st.Blocks)
	}
}

// ---- version-driven activation -------------------------------------------

func TestVersionActivation(t *testing.T) {
	// At kernel 3.12 the W22 mechanism is live: the rename is lost.
	m := runW22(t, New(Options{Version: bugs.MustVersion("3.12")}))
	if !exists(m, "/foo") || exists(m, "/bar") {
		t.Fatal("at 3.12 the W22 bug must reproduce")
	}
	// At 4.16 it is fixed...
	m416 := runW22(t, New(Options{Version: bugs.Latest}))
	if exists(m416, "/foo") || !exists(m416, "/bar") {
		t.Fatal("at 4.16 the W22 bug must be fixed")
	}
	// ...but the Table 5 new bugs are live: N7 reproduces.
	mN7 := runN7(t, New(Options{Version: bugs.Latest}))
	if exists(mN7, "/A/bar") {
		t.Fatal("at 4.16 the N7 bug must reproduce")
	}
}

func TestFsckRepairsUnmountable(t *testing.T) {
	h := newHarness(t, withBugs("btrfs-link-unlink-replay-fail"))
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Link("/A/foo", "/A/bar"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Unlink("/A/bar"))
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Fsync("/A/bar"))
	h.cp()

	crash := blockdev.NewSnapshot(h.base)
	if _, err := blockdev.ReplayToCheckpoint(crash, h.rec.Log(), h.rec.Checkpoints()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.fs.Mount(crash); err == nil {
		t.Fatal("expected unmountable crash state")
	}
	repaired, err := h.fs.Fsck(crash)
	if err != nil || !repaired {
		t.Fatalf("fsck: repaired=%v err=%v", repaired, err)
	}
	m, err := h.fs.Mount(crash)
	if err != nil {
		t.Fatalf("mount after fsck: %v", err)
	}
	// fsck discarded the log: only committed state survives.
	if !exists(m, "/A/foo") {
		t.Fatal("committed file lost by fsck")
	}
}

func TestActiveBugsList(t *testing.T) {
	fs := New(Options{Version: bugs.Latest})
	act := fs.ActiveBugs()
	if len(act) == 0 {
		t.Fatal("4.16 logfs must have active bugs (the Table 5 set)")
	}
	for _, id := range act {
		b, ok := bugs.ByID(id)
		if !ok || b.FS != "logfs" {
			t.Fatalf("unexpected active bug %q", id)
		}
	}
}
