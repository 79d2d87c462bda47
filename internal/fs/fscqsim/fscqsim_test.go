package fscqsim

import (
	"bytes"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

func setup(t *testing.T, fs *FS) (*blockdev.MemDisk, *blockdev.Recorder, filesys.MountedFS) {
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
	return base, rec, m
}

func crashMount(t *testing.T, fs *FS, base *blockdev.MemDisk, rec *blockdev.Recorder) filesys.MountedFS {
	t.Helper()
	crash := blockdev.NewSnapshot(base)
	if _, err := blockdev.ReplayToCheckpoint(crash, rec.Log(), rec.Checkpoints()); err != nil {
		t.Fatal(err)
	}
	m, err := fs.Mount(crash)
	if err != nil {
		t.Fatalf("crash state unmountable: %v", err)
	}
	return m
}

func fixed() *FS { return New(Options{BugOverride: map[string]bool{}}) }

func TestLogFlushPersistsEverything(t *testing.T) {
	fs := fixed()
	base, rec, m := setup(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Mkdir("/d"))
	must(m.Create("/d/f"))
	must(m.Write("/d/f", 0, []byte("verified")))
	must(m.Fsync("/d/f"))
	rec.Checkpoint()
	crashed := crashMount(t, fs, base, rec)
	data, err := crashed.ReadFile("/d/f")
	if err != nil || string(data) != "verified" {
		t.Fatalf("after crash: %q %v", data, err)
	}
}

// New bug 11 (Table 5 #11 / appendix 9.2 workload 11): write, sync,
// append, fdatasync — the appended data is lost because the size update
// stays in the unflushed log.
func runN11(t *testing.T, fs *FS) filesys.MountedFS {
	base, rec, m := setup(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Create("/foo"))
	must(m.Write("/foo", 0, bytes.Repeat([]byte{1}, 4096)))
	must(m.Sync())
	rec.Checkpoint()
	must(m.Write("/foo", 4096, bytes.Repeat([]byte{2}, 4096)))
	must(m.Fdatasync("/foo"))
	rec.Checkpoint()
	return crashMount(t, fs, base, rec)
}

func TestN11FdatasyncDataLoss(t *testing.T) {
	m := runN11(t, New(Options{BugOverride: map[string]bool{"fscq-fdatasync-logged-writes": true}}))
	st, err := m.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 4096 {
		t.Fatalf("bug active: size = %d, want 4096 (data loss)", st.Size)
	}
	mFixed := runN11(t, fixed())
	st, err = mFixed.Stat("/foo")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 8192 {
		t.Fatalf("fixed: size = %d, want 8192", st.Size)
	}
	data, err := mFixed.ReadFile("/foo")
	if err != nil || data[4096] != 2 {
		t.Fatalf("fixed: appended data lost: %v", err)
	}
}

func TestFdatasyncOnNewFileIsSafeToLose(t *testing.T) {
	fs := fixed()
	base, rec, m := setup(t, fs)
	if err := m.Create("/fresh"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write("/fresh", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.Fdatasync("/fresh"); err != nil {
		t.Fatal(err)
	}
	rec.Checkpoint()
	crashed := crashMount(t, fs, base, rec)
	// The file was never fsynced, so its absence after a crash is legal;
	// what matters is that recovery does not fail.
	if _, err := crashed.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
}
