package journalfs

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

func TestBasicDurability(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Write("/A/foo", 0, []byte("data")))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()
	m := h.crashMount()
	data, err := m.ReadFile("/A/foo")
	if err != nil || string(data) != "data" {
		t.Fatalf("fsynced file: %q %v", data, err)
	}
}

func TestOrderedModeDragsMetadata(t *testing.T) {
	// ext4's global journal: fsync of one file persists pending metadata of
	// others (this is why the paper found no new ext4 bugs).
	h := newHarness(t, fixed())
	h.do(h.m.Create("/foo"))
	h.do(h.m.Create("/other"))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	m := h.crashMount()
	if !exists(m, "/other") {
		t.Fatal("global journal commit must drag other metadata")
	}
}

func TestCrashWithoutPersistenceLoses(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/keep"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Create("/lost"))
	m := h.crashMount()
	if !exists(m, "/keep") || exists(m, "/lost") {
		t.Fatal("durability boundary wrong")
	}
}

// Workload 2 [24]: fdatasync after fallocate KEEP_SIZE loses the blocks
// allocated beyond EOF.
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

func TestW2FdatasyncFallocKeepSize(t *testing.T) {
	m := runW2(t, withBug("ext4-fdatasync-falloc-keepsize"))
	st, err := m.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 16 {
		t.Fatalf("bug active: blocks = %d sectors, want 16", st.Blocks)
	}
	mFixed := runW2(t, fixed())
	st, err = mFixed.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 32 {
		t.Fatalf("fixed: blocks = %d sectors, want 32", st.Blocks)
	}
	if st.Size != 8192 {
		t.Fatalf("KEEP_SIZE must not change the size: %d", st.Size)
	}
}

// Workload 4 [25]: direct write past the on-disk size does not update
// i_disksize; the file recovers with allocated blocks but size zero.
func runW4(t *testing.T, fs *FS) filesys.MountedFS {
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Sync())
	h.cp()
	h.do(h.m.Write("/foo", 16384, bytes.Repeat([]byte{9}, 4096))) // buffered, unpersisted
	h.do(h.m.WriteDirect("/foo", 0, bytes.Repeat([]byte{7}, 4096)))
	h.cp() // direct IO completion is the crash point
	return h.crashMount()
}

func TestW4DirectWriteDiskSize(t *testing.T) {
	m := runW4(t, withBug("ext4-dwrite-disksize"))
	st, err := m.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 0 {
		t.Fatalf("bug active: size = %d, want 0", st.Size)
	}
	if st.Blocks != 8 {
		t.Fatalf("bug active: blocks = %d sectors, want 8 (allocated but size 0)", st.Blocks)
	}
	mFixed := runW4(t, fixed())
	st, err = mFixed.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 4096 {
		t.Fatalf("fixed: size = %d, want 4096", st.Size)
	}
	data, err := mFixed.ReadFile("/foo")
	if err != nil || data[0] != 7 {
		t.Fatalf("fixed: direct data lost: %v", err)
	}
}

func TestFsckMounts(t *testing.T) {
	fs := fixed()
	dev := blockdev.NewMemDisk(8192)
	if err := fs.Mkfs(dev); err != nil {
		t.Fatal(err)
	}
	repaired, err := fs.Fsck(dev)
	if err != nil || !repaired {
		t.Fatalf("fsck: %v %v", repaired, err)
	}
}
