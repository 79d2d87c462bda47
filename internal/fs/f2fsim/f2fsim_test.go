package f2fsim

import (
	"bytes"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

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
	rec := blockdev.NewRecorder(base)
	t.Cleanup(rec.Release)
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

func (h *harness) cp() { h.rec.Checkpoint() }

func (h *harness) crashMount() filesys.MountedFS {
	h.t.Helper()
	crash := blockdev.NewSnapshot(h.base)
	if _, err := blockdev.ReplayToCheckpoint(crash, h.rec.Log(), h.rec.Checkpoints()); err != nil {
		h.t.Fatal(err)
	}
	m, err := h.fs.Mount(crash)
	if err != nil {
		h.t.Fatalf("crash state unmountable: %v", err)
	}
	return m
}

func fixed() *FS { return New(Options{BugOverride: map[string]bool{}}) }

func withBug(id string) *FS {
	return New(Options{BugOverride: map[string]bool{id: true}})
}

func exists(m filesys.MountedFS, path string) bool {
	_, err := m.Stat(path)
	return err == nil
}

func TestRollForwardRecoversFsyncedFile(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Write("/A/foo", 0, []byte("f2fs")))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	m := h.crashMount()
	data, err := m.ReadFile("/A/foo")
	if err != nil || string(data) != "f2fs" {
		t.Fatalf("roll-forward: %q %v", data, err)
	}
}

func TestUnfsyncedFileLost(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/a"))
	h.do(h.m.Fsync("/a"))
	h.cp()
	h.do(h.m.Create("/b"))
	m := h.crashMount()
	if !exists(m, "/a") || exists(m, "/b") {
		t.Fatal("durability boundary wrong")
	}
}

func TestDirFsyncIsCheckpoint(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/x"))
	h.do(h.m.Fsync("/A"))
	h.cp()
	m := h.crashMount()
	if !exists(m, "/A/x") {
		t.Fatal("dir fsync (checkpoint) must persist children")
	}
}

// Workload 1 [49], F2FS flavour: pwrite, rename, pwrite, fsync loses the
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
	return h.crashMount()
}

func TestW1F2FSRenamedFileLost(t *testing.T) {
	m := runW1(t, withBug("f2fs-rename-old-file-lost-on-new-fsync"))
	if !exists(m, "/A/foo") {
		t.Fatal("fsynced file must exist")
	}
	if exists(m, "/A/bar") {
		t.Fatal("bug active: renamed file should be lost")
	}
	mFixed := runW1(t, fixed())
	if !exists(mFixed, "/A/foo") || !exists(mFixed, "/A/bar") {
		t.Fatal("fixed: both files must survive")
	}
	st, err := mFixed.Stat("/A/bar")
	if err != nil || st.Size != 16384 {
		t.Fatalf("fixed: bar size = %d %v", st.Size, err)
	}
}

// Workload 2 [24], F2FS flavour.
func runW2(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{1}, 8192)))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	h.do(h.m.Falloc("/foo", filesys.FallocKeepSize, 8192, 8192))
	h.do(h.m.Fdatasync("/foo"))
	h.cp()
	return h.crashMount()
}

func TestW2F2FSFdatasyncKeepSize(t *testing.T) {
	m := runW2(t, withBug("f2fs-fdatasync-falloc-keepsize"))
	st, err := m.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 16 {
		t.Fatalf("bug active: blocks = %d, want 16", st.Blocks)
	}
	mFixed := runW2(t, fixed())
	st, err = mFixed.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 32 {
		t.Fatalf("fixed: blocks = %d, want 32", st.Blocks)
	}
}

// New bug 9 (Table 5 #9): zero_range KEEP_SIZE recovers to the wrong size.
func runN9(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, bytes.Repeat([]byte{1}, 16384)))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	h.do(h.m.Falloc("/foo", filesys.FallocZeroRangeKeepSize, 16384, 4096))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	return h.crashMount()
}

func TestN9ZeroRangeKeepSize(t *testing.T) {
	m := runN9(t, withBug("f2fs-zero-range-keep-size-size"))
	st, err := m.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 20480 {
		t.Fatalf("bug active: size = %d, want 20480 (16K+4K)", st.Size)
	}
	mFixed := runN9(t, fixed())
	st, err = mFixed.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 16384 {
		t.Fatalf("fixed: size = %d, want 16384", st.Size)
	}
}

// New bug 10 (Table 5 #10): file fsynced under a renamed directory
// recovers into the old directory.
func runN10(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Rename("/A", "/B"))
	h.do(h.m.Create("/B/foo"))
	h.do(h.m.Fsync("/B/foo"))
	h.cp()
	return h.crashMount()
}

func TestN10RenamedDirChildOldLocation(t *testing.T) {
	m := runN10(t, withBug("f2fs-renamed-dir-child-old-loc"))
	if !exists(m, "/A/foo") {
		t.Fatal("bug active: foo should recover under the old directory name")
	}
	if exists(m, "/B") {
		t.Fatal("bug active: rename should not be persisted")
	}
	mFixed := runN10(t, fixed())
	if !exists(mFixed, "/B/foo") || exists(mFixed, "/A") {
		t.Fatal("fixed: strict fsync mode must checkpoint the rename")
	}
}
