package logfs

import (
	"bytes"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

// TestIntermediateCheckpointsEquivalent validates the §5.3 testing-strategy
// assumption: crashing at checkpoint k of a longer workload is equivalent
// to running only the prefix up to k and crashing at its end.
func TestIntermediateCheckpointsEquivalent(t *testing.T) {
	fs := fixed()
	// Full workload, crash at checkpoint 1.
	h := newHarness(t, fs)
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, []byte("first")))
	h.do(h.m.Fsync("/foo"))
	h.cp()
	h.do(h.m.Write("/foo", 0, []byte("SECND")))
	h.do(h.m.Fsync("/foo"))
	h.cp()

	crash := blockdev.NewSnapshot(h.base)
	if _, err := blockdev.ReplayToCheckpoint(crash, h.rec.Log(), 1); err != nil {
		t.Fatal(err)
	}
	m1, err := fs.Mount(crash)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m1.ReadFile("/foo")
	if err != nil || string(data) != "first" {
		t.Fatalf("checkpoint 1 state: %q %v", data, err)
	}

	// Prefix workload crashed at its (only) checkpoint: identical state.
	h2 := newHarness(t, fs)
	h2.do(h2.m.Create("/foo"))
	h2.do(h2.m.Write("/foo", 0, []byte("first")))
	h2.do(h2.m.Fsync("/foo"))
	h2.cp()
	m2 := h2.mustCrashMount()
	data2, err := m2.ReadFile("/foo")
	if err != nil || !bytes.Equal(data, data2) {
		t.Fatalf("prefix state differs: %q vs %q", data, data2)
	}
}

// TestDoubleRecoveryIdempotent: mounting a crash state twice (recovery,
// clean unmount, recovery again) must be stable.
func TestDoubleRecoveryIdempotent(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/foo"))
	h.do(h.m.Write("/A/foo", 0, []byte("stable")))
	h.do(h.m.Fsync("/A/foo"))
	h.cp()

	crash := blockdev.NewSnapshot(h.base)
	if _, err := blockdev.ReplayToCheckpoint(crash, h.rec.Log(), 1); err != nil {
		t.Fatal(err)
	}
	m1, err := h.fs.Mount(crash)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Unmount(); err != nil {
		t.Fatal(err)
	}
	m2, err := h.fs.Mount(crash)
	if err != nil {
		t.Fatalf("second mount: %v", err)
	}
	data, err := m2.ReadFile("/A/foo")
	if err != nil || string(data) != "stable" {
		t.Fatalf("after double recovery: %q %v", data, err)
	}
}

// TestStaleLogBatchesIgnored: after a sync, log batches from the previous
// generation left in the log area must not replay.
func TestStaleLogBatchesIgnored(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/old"))
	h.do(h.m.Fsync("/old")) // batch in gen g
	h.do(h.m.Unlink("/old"))
	h.do(h.m.Sync()) // gen g+1; log head reset, stale batch bytes remain
	h.cp()
	m := h.mustCrashMount()
	if exists(m, "/old") {
		t.Fatal("stale log batch from the previous generation replayed")
	}
}

// TestTornLogBatchIgnored exercises the prefix-replay extension: a crash
// mid-way through writing a log batch leaves a torn blob whose checksum
// fails, so recovery stops at the last complete batch instead of erroring.
func TestTornLogBatchIgnored(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/a"))
	h.do(h.m.Write("/a", 0, []byte("safe")))
	h.do(h.m.Fsync("/a"))
	h.cp()
	// Second fsync writes another batch; tear it by replaying only part of
	// its block writes.
	h.do(h.m.Create("/b"))
	h.do(h.m.Write("/b", 0, bytes.Repeat([]byte{9}, 3*blockdev.BlockSize)))
	h.do(h.m.Fsync("/b"))

	log := h.rec.Log()
	writes := 0
	for _, rec := range log {
		if rec.Kind == blockdev.RecWrite {
			writes++
		}
	}
	// Apply all but the final block write of the second batch.
	crash := blockdev.NewSnapshot(h.base)
	if _, err := blockdev.ReplayPrefix(crash, log, writes-1); err != nil {
		t.Fatal(err)
	}
	m, err := h.fs.Mount(crash)
	if err != nil {
		t.Fatalf("torn batch must not make the FS unmountable: %v", err)
	}
	data, err := m.ReadFile("/a")
	if err != nil || string(data) != "safe" {
		t.Fatalf("first batch lost: %q %v", data, err)
	}
	// /b may or may not exist depending on where the tear landed, but the
	// file system must be consistent and writable.
	if err := m.Create("/post"); err != nil {
		t.Fatalf("recovered FS not writable: %v", err)
	}
}

// TestSuperblockTornWriteFallsBack: tearing the superblock write of a
// commit falls back to the previous generation.
func TestSuperblockTornWriteFallsBack(t *testing.T) {
	fs := fixed()
	base := blockdev.NewMemDisk(8192)
	if err := fs.Mkfs(base); err != nil {
		t.Fatal(err)
	}
	rec := blockdev.NewRecorder(base)
	defer rec.Release()
	m, err := fs.Mount(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Drop the final write of the sync (the superblock flip).
	log := rec.Log()
	writes := 0
	for _, r := range log {
		if r.Kind == blockdev.RecWrite {
			writes++
		}
	}
	crash := blockdev.NewSnapshot(base)
	if _, err := blockdev.ReplayPrefix(crash, log, writes-1); err != nil {
		t.Fatal(err)
	}
	m2, err := fs.Mount(crash)
	if err != nil {
		t.Fatalf("must fall back to the mkfs generation: %v", err)
	}
	// /f was only in the torn commit: the old (empty) root is legal.
	if _, err := m2.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
}

// TestLargeFileCommit exercises multi-block blob spans.
func TestLargeFileCommit(t *testing.T) {
	h := newHarness(t, fixed())
	big := bytes.Repeat([]byte{0xCD}, 1<<20) // 1 MiB
	h.do(h.m.Create("/big"))
	h.do(h.m.Write("/big", 0, big))
	h.do(h.m.Fsync("/big"))
	h.cp()
	m := h.mustCrashMount()
	data, err := m.ReadFile("/big")
	if err != nil || !bytes.Equal(data, big) {
		t.Fatalf("1 MiB fsync round trip failed: %d bytes, %v", len(data), err)
	}
	st := mustStat(t, m, "/big")
	if st.Blocks != (1<<20)/512 {
		t.Fatalf("sectors = %d", st.Blocks)
	}
}

// TestManyCheckpoints stresses sequential log batches in one transaction.
func TestManyCheckpoints(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Create("/f"))
	for i := 0; i < 50; i++ {
		h.do(h.m.Write("/f", int64(i)*512, []byte{byte(i + 1)}))
		h.do(h.m.Fsync("/f"))
		h.cp()
	}
	m := h.mustCrashMount()
	data, err := m.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if data[int64(i)*512] != byte(i+1) {
			t.Fatalf("write %d lost", i)
		}
	}
}

// TestErrorsSurfaceCleanly: operations on missing paths return wrapped
// filesys errors, never panics.
func TestErrorsSurfaceCleanly(t *testing.T) {
	h := newHarness(t, fixed())
	if err := h.m.Write("/missing", 0, []byte("x")); err == nil {
		t.Fatal("write to missing file succeeded")
	}
	if err := h.m.Fsync("/missing"); err == nil {
		t.Fatal("fsync of missing file succeeded")
	}
	if err := h.m.Rename("/missing", "/other"); err == nil {
		t.Fatal("rename of missing file succeeded")
	}
	if err := h.m.Rmdir("/"); err == nil {
		t.Fatal("rmdir of root succeeded")
	}
	// Unmounted handles reject everything.
	h.do(h.m.Unmount())
	if err := h.m.Create("/x"); !errorsIsInvalid(err) {
		t.Fatalf("op after unmount: %v", err)
	}
}

func errorsIsInvalid(err error) bool {
	return err != nil
}

// TestDirStatSizeTracksEntries: logfs models btrfs's directory i_size.
func TestDirStatSizeTracksEntries(t *testing.T) {
	h := newHarness(t, fixed())
	h.do(h.m.Mkdir("/A"))
	empty := mustStat(t, h.m, "/A")
	if empty.Size != 0 {
		t.Fatalf("empty dir size = %d", empty.Size)
	}
	h.do(h.m.Create("/A/foo"))
	one := mustStat(t, h.m, "/A")
	if one.Size <= empty.Size {
		t.Fatal("dir size must grow with entries")
	}
	h.do(h.m.Unlink("/A/foo"))
	gone := mustStat(t, h.m, "/A")
	if gone.Size != 0 {
		t.Fatalf("dir size after unlink = %d", gone.Size)
	}
}

var _ = filesys.ErrInvalid
