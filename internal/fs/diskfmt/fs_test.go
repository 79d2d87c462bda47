package diskfmt

import (
	"testing"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

func fsSetup(t *testing.T, fs *FS) (*blockdev.MemDisk, *blockdev.Recorder, filesys.MountedFS) {
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

func fsCrashMount(t *testing.T, fs *FS, base *blockdev.MemDisk, rec *blockdev.Recorder) filesys.MountedFS {
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

func TestFSCheckpointPersistsEverything(t *testing.T) {
	fs := NewFS(Options{})
	base, rec, m := fsSetup(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Mkdir("/d"))
	must(m.Create("/d/f"))
	must(m.Write("/d/f", 0, []byte("whole-image")))
	must(m.Link("/d/f", "/d/g"))
	must(m.SetXattr("/d/f", "user.tag", []byte("x")))
	must(m.Fsync("/d/f"))
	rec.Checkpoint()
	crashed := fsCrashMount(t, fs, base, rec)
	data, err := crashed.ReadFile("/d/f")
	if err != nil || string(data) != "whole-image" {
		t.Fatalf("after crash: %q %v", data, err)
	}
	st, err := crashed.Stat("/d/g")
	if err != nil || st.Nlink != 2 {
		t.Fatalf("hard link lost after crash: %+v %v", st, err)
	}
	xa, err := crashed.ListXattr("/d/f")
	if err != nil || string(xa["user.tag"]) != "x" {
		t.Fatalf("xattr lost after crash: %v %v", xa, err)
	}
}

func TestFSCrashBeforePersistenceRecoversOldState(t *testing.T) {
	fs := NewFS(Options{})
	base, rec, m := fsSetup(t, fs)
	if err := m.Create("/durable"); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	rec.Checkpoint()
	// Buffered-only changes after the checkpoint must roll back cleanly.
	if err := m.Create("/volatile"); err != nil {
		t.Fatal(err)
	}
	crashed := fsCrashMount(t, fs, base, rec)
	if _, err := crashed.Stat("/durable"); err != nil {
		t.Fatalf("durable file lost: %v", err)
	}
	if _, err := crashed.Stat("/volatile"); err == nil {
		t.Fatal("unpersisted file survived the crash")
	}
}

// TestFSTornCheckpointKeepsPreviousGeneration crashes mid-checkpoint (the
// superblock write never lands): the previous generation must mount.
func TestFSTornCheckpointKeepsPreviousGeneration(t *testing.T) {
	fs := NewFS(Options{})
	base, rec, m := fsSetup(t, fs)
	if err := m.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Fsync("/a"); err != nil {
		t.Fatal(err)
	}
	rec.Checkpoint()
	if err := m.Create("/b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Fsync("/b"); err != nil {
		t.Fatal(err)
	}
	// Replay everything up to, but not including, the final flush epoch:
	// take only the writes before the last checkpoint's superblock flush by
	// replaying to the previous checkpoint.
	crash := blockdev.NewSnapshot(base)
	if _, err := blockdev.ReplayToCheckpoint(crash, rec.Log(), 1); err != nil {
		t.Fatal(err)
	}
	cm, err := fs.Mount(crash)
	if err != nil {
		t.Fatalf("previous generation unmountable: %v", err)
	}
	if _, err := cm.Stat("/a"); err != nil {
		t.Fatalf("generation-1 file missing: %v", err)
	}
}
