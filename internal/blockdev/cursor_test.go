package blockdev

import (
	"bytes"
	"fmt"
	"testing"
)

// buildLog records a small multi-epoch stream: three persistence points with
// overlapping block writes (overwrites included) and a flush barrier that
// closes an epoch without a checkpoint.
func buildLog(t *testing.T) (*MemDisk, *Recorder) {
	t.Helper()
	base := NewMemDisk(64)
	rec := NewRecorder(NewSnapshot(base))
	blk := func(v byte) []byte {
		b := make([]byte, BlockSize)
		b[0], b[BlockSize-1] = v, v
		return b
	}
	w := func(n int64, v byte) {
		if err := rec.WriteBlock(n, blk(v)); err != nil {
			t.Fatal(err)
		}
	}
	w(1, 10)
	w(2, 11)
	rec.Checkpoint() // cp 1
	w(2, 12)         // overwrite
	w(3, 13)
	rec.Flush() // epoch barrier, no checkpoint
	w(4, 14)
	rec.Checkpoint() // cp 2
	w(1, 15)         // overwrite across epochs
	w(5, 16)
	rec.Checkpoint() // cp 3
	w(6, 17)         // tail writes, open epoch
	return base, rec
}

// deviceBytes snapshots every block of dev for byte-level comparison.
func deviceBytes(t *testing.T, dev Device) []byte {
	t.Helper()
	var out bytes.Buffer
	for n := int64(0); n < dev.NumBlocks(); n++ {
		b, err := dev.ReadBlock(n)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
	}
	return out.Bytes()
}

func TestReplayCursorMatchesScratch(t *testing.T) {
	base, rec := buildLog(t)
	cur := NewReplayCursor(base, rec.Log())
	defer cur.Release()
	// Ascending sweep, then a rewind (cp 3 -> cp 1), then forward again.
	for _, cp := range []int{1, 2, 3, 1, 2} {
		if _, err := cur.SeekCheckpoint(cp); err != nil {
			t.Fatalf("seek cp %d: %v", cp, err)
		}
		scratch := NewSnapshot(base)
		if _, err := ReplayToCheckpoint(scratch, rec.Log(), cp); err != nil {
			t.Fatal(err)
		}
		fork := cur.Fork()
		if got, want := deviceBytes(t, fork), deviceBytes(t, scratch); !bytes.Equal(got, want) {
			t.Fatalf("cp %d: cursor state differs from scratch replay", cp)
		}
		if got, want := fork.Fingerprint(), scratch.Fingerprint(); got != want {
			t.Fatalf("cp %d: fingerprint %x (cursor) != %x (scratch)", cp, got, want)
		}
		if got, want := cur.Fingerprint(), scratch.Fingerprint(); got != want {
			t.Fatalf("cp %d: rolling fingerprint diverged", cp)
		}
		fork.Release()
	}
}

func TestReplayCursorDeltaCost(t *testing.T) {
	base, rec := buildLog(t)
	cur := NewReplayCursor(base, rec.Log())
	defer cur.Release()
	var total int64
	for cp := 1; cp <= 3; cp++ {
		n, err := cur.SeekCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	// The ascending sweep must replay every pre-checkpoint write exactly
	// once: 7 writes precede cp 3 (the 8th is after it).
	if total != 7 {
		t.Fatalf("ascending sweep replayed %d writes, want 7", total)
	}
	if n, err := cur.SeekCheckpoint(3); err != nil || n != 0 {
		t.Fatalf("re-seeking the current checkpoint cost %d writes (err %v), want 0", n, err)
	}
	if cur.ReplayedWrites() != 7 {
		t.Fatalf("ReplayedWrites = %d, want 7", cur.ReplayedWrites())
	}
}

func TestReplayCursorErrors(t *testing.T) {
	base, rec := buildLog(t)
	cur := NewReplayCursor(base, rec.Log())
	defer cur.Release()
	if _, err := cur.SeekCheckpoint(0); err == nil {
		t.Fatal("checkpoint 0 must error")
	}
	if _, err := cur.SeekCheckpoint(9); err == nil {
		t.Fatal("absent checkpoint must error")
	}
}

func TestCursorForkIsolationBlockdev(t *testing.T) {
	base, rec := buildLog(t)
	cur := NewReplayCursor(base, rec.Log())
	defer cur.Release()
	if _, err := cur.SeekCheckpoint(2); err != nil {
		t.Fatal(err)
	}
	before := cur.Fingerprint()
	baseBytes := deviceBytes(t, base)

	// Recovery-style writes on a fork must not leak anywhere.
	forkA := cur.Fork()
	junk := make([]byte, BlockSize)
	junk[7] = 0xEE
	if err := forkA.WriteBlock(9, junk); err != nil {
		t.Fatal(err)
	}
	if err := forkA.WriteBlock(1, junk); err != nil { // overwrite a rolling-dirty block
		t.Fatal(err)
	}

	if cur.Fingerprint() != before {
		t.Fatal("fork write changed the rolling fingerprint")
	}
	forkB := cur.Fork()
	if forkB.Fingerprint() != before {
		t.Fatal("sibling fork sees the other fork's writes")
	}
	if b, _ := forkB.ReadBlock(9); b[7] != 0 {
		t.Fatal("sibling fork reads the other fork's data")
	}
	if !bytes.Equal(deviceBytes(t, base), baseBytes) {
		t.Fatal("fork write reached the pristine base")
	}
	forkA.Release()
	forkB.Release()
}

func TestIncrementalReorderMatchesScratch(t *testing.T) {
	base, rec := buildLog(t)
	log := rec.Log()
	for _, k := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			type scratchState struct {
				desc  string
				fp    uint64
				bytes []byte
			}
			var want []scratchState
			ForEachReorderState(log, k, func(st ReorderState, apply func(Device) error) bool {
				crash := NewSnapshot(base)
				if err := apply(crash); err != nil {
					t.Fatal(err)
				}
				want = append(want, scratchState{st.Desc, crash.Fingerprint(), deviceBytes(t, crash)})
				return true
			})

			i := 0
			var meter BlockMeter
			stats, err := ForEachReorderStatePruned(base, log, k, ReorderEnumOpts{}, &meter,
				func(st ReorderState, crash *Snapshot) bool {
					if i >= len(want) {
						t.Fatalf("incremental enumerated extra state %s", st.Desc)
					}
					w := want[i]
					if st.Desc != w.desc {
						t.Fatalf("state %d: desc %s != scratch %s", i, st.Desc, w.desc)
					}
					if fp := crash.Fingerprint(); fp != w.fp {
						t.Fatalf("state %s: fingerprint %x != scratch %x", st.Desc, fp, w.fp)
					}
					if !bytes.Equal(deviceBytes(t, crash), w.bytes) {
						t.Fatalf("state %s: device contents differ from scratch", st.Desc)
					}
					i++
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			incReplayed := stats.Replayed
			if i != len(want) {
				t.Fatalf("incremental enumerated %d states, scratch %d", i, len(want))
			}
			if meter.BlocksReplayed.Load() != incReplayed {
				t.Fatalf("meter says %d replayed, return value %d", meter.BlocksReplayed.Load(), incReplayed)
			}
			// The whole point: the incremental engine must replay strictly
			// fewer writes than per-state scratch replay on multi-epoch logs.
			var scratchReplayed int64
			epochs := Epochs(log)
			ForEachReorderState(log, k, func(st ReorderState, _ func(Device) error) bool {
				for e := 0; e < st.Epoch && e < len(epochs); e++ {
					scratchReplayed += int64(len(epochs[e].Writes))
				}
				if st.Epoch >= 0 && st.Epoch < len(epochs) {
					scratchReplayed += int64(st.Applied - len(st.Dropped))
				}
				return true
			})
			if incReplayed >= scratchReplayed {
				t.Fatalf("incremental replayed %d writes, scratch %d — no savings", incReplayed, scratchReplayed)
			}
		})
	}
}

func TestIncrementalReorderEmptyLog(t *testing.T) {
	base := NewMemDisk(8)
	seen := 0
	_, err := ForEachReorderStatePruned(base, nil, 1, ReorderEnumOpts{}, nil, func(st ReorderState, crash *Snapshot) bool {
		if st.Desc != "empty" {
			t.Fatalf("unexpected state %s", st.Desc)
		}
		seen++
		return true
	})
	if err != nil || seen != 1 {
		t.Fatalf("empty log: seen %d states, err %v", seen, err)
	}
}

func TestIncrementalReorderEarlyStop(t *testing.T) {
	base, rec := buildLog(t)
	seen := 0
	if _, err := ForEachReorderStatePruned(base, rec.Log(), 1, ReorderEnumOpts{}, nil,
		func(ReorderState, *Snapshot) bool {
			seen++
			return seen < 3
		}); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("stop after 3 states, enumerated %d", seen)
	}
}

func TestTrackedFingerprintMatchesScan(t *testing.T) {
	base := NewMemDisk(32)
	tracked := NewTrackedSnapshot(base)
	defer tracked.Release()
	scan := NewSnapshot(base)
	defer scan.Release()
	writes := []struct {
		n int64
		v byte
	}{{3, 1}, {5, 2}, {3, 3}, {7, 4}, {3, 1}, {5, 5}}
	for _, w := range writes {
		b := make([]byte, BlockSize)
		b[0] = w.v
		tracked.WriteBlock(w.n, b)
		scan.WriteBlock(w.n, b)
		if got, want := tracked.Fingerprint(), scan.Fingerprint(); got != want {
			t.Fatalf("after write (%d,%d): tracked %x != scan %x", w.n, w.v, got, want)
		}
	}
}

func TestReadViewAndReadInto(t *testing.T) {
	base := NewMemDisk(8)
	data := make([]byte, BlockSize)
	data[42] = 9
	if err := base.WriteBlock(2, data); err != nil {
		t.Fatal(err)
	}
	snap := NewSnapshot(base)

	v, err := ReadView(snap, 2) // clean block: borrowed from the base
	if err != nil || v[42] != 9 {
		t.Fatalf("view of clean block: %v, byte %d", err, v[42])
	}
	if z, err := ReadView(snap, 3); err != nil || z[0] != 0 {
		t.Fatalf("view of unwritten block must be zero: %v", err)
	}
	over := make([]byte, BlockSize)
	over[42] = 10
	snap.WriteBlock(2, over)
	if v, _ := ReadView(snap, 2); v[42] != 10 {
		t.Fatal("view of dirty block must come from the overlay")
	}
	buf := make([]byte, BlockSize)
	if err := ReadInto(snap, 2, buf); err != nil || buf[42] != 10 {
		t.Fatalf("ReadInto: %v, byte %d", err, buf[42])
	}
	if _, err := ReadView(snap, 99); err == nil {
		t.Fatal("out-of-range view must error")
	}
}

func TestBlockMeterCounts(t *testing.T) {
	base, rec := buildLog(t)
	var meter BlockMeter
	cur := NewReplayCursor(base, rec.Log())
	defer cur.Release()
	cur.SetMeter(&meter)
	if _, err := cur.SeekCheckpoint(2); err != nil {
		t.Fatal(err)
	}
	if got := meter.BlocksReplayed.Load(); got != 5 {
		t.Fatalf("BlocksReplayed = %d, want 5 (writes before cp 2)", got)
	}
	fork := cur.Fork()
	fork.ReadBlock(1)
	ReadView(fork, 2)
	if got := meter.BlocksRead.Load(); got != 2 {
		t.Fatalf("BlocksRead = %d, want 2", got)
	}
	if meter.BytesAllocated.Load() != BlockSize {
		t.Fatalf("BytesAllocated = %d, want %d (one copying read)", meter.BytesAllocated.Load(), BlockSize)
	}
	meter.Reset()
	if meter.BlocksReplayed.Load()|meter.BlocksRead.Load()|meter.BytesAllocated.Load() != 0 {
		t.Fatal("Reset left counters non-zero")
	}
	fork.Release()
}

func TestWriteBackOfBorrowedView(t *testing.T) {
	// Writing a block's own borrowed view back must be a no-op for the
	// contents, not wipe the block: the reuse-on-overwrite write path has
	// to stay correct when data aliases the overlay buffer itself.
	for _, tracked := range []bool{false, true} {
		base := NewMemDisk(8)
		var s *Snapshot
		if tracked {
			s = NewTrackedSnapshot(base)
		} else {
			s = NewSnapshot(base)
		}
		data := make([]byte, BlockSize)
		data[0], data[BlockSize-1] = 7, 9
		if err := s.WriteBlock(2, data); err != nil {
			t.Fatal(err)
		}
		want := s.Fingerprint()
		v, err := s.ReadBlockView(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteBlock(2, v); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadBlock(2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 7 || got[BlockSize-1] != 9 {
			t.Fatalf("tracked=%t: write-back of a borrowed view corrupted the block: %d %d",
				tracked, got[0], got[BlockSize-1])
		}
		if s.Fingerprint() != want {
			t.Fatalf("tracked=%t: write-back of a borrowed view changed the fingerprint", tracked)
		}
		// Same contract on the dense device.
		if err := base.WriteBlock(1, data); err != nil {
			t.Fatal(err)
		}
		bv, err := base.ReadBlockView(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := base.WriteBlock(1, bv); err != nil {
			t.Fatal(err)
		}
		if b, _ := base.ReadBlock(1); b[0] != 7 || b[BlockSize-1] != 9 {
			t.Fatal("MemDisk write-back of a borrowed view corrupted the block")
		}
		s.Release()
	}
}

func TestTrackedSnapshotResetStaysTracked(t *testing.T) {
	base := NewMemDisk(8)
	s := NewTrackedSnapshot(base)
	defer s.Release()
	data := make([]byte, BlockSize)
	data[0] = 5
	s.WriteBlock(1, data)
	s.Reset()
	if s.Fingerprint() != 0 {
		t.Fatal("reset snapshot must fingerprint as pristine")
	}
	s.WriteBlock(2, data)
	ref := NewSnapshot(base)
	defer ref.Release()
	ref.WriteBlock(2, data)
	if s.Fingerprint() != ref.Fingerprint() {
		t.Fatal("post-reset fingerprint diverged from scratch")
	}
	if s.contrib == nil {
		t.Fatal("tracked snapshot degraded to untracked after Reset")
	}
}

func TestSnapshotReleaseAndReuseSafety(t *testing.T) {
	// Pool round-trip: a released fork's buffers may be handed to a new
	// snapshot; the new snapshot must start logically zeroed.
	base := NewMemDisk(8)
	a := NewTrackedSnapshot(base)
	junk := bytes.Repeat([]byte{0xAB}, BlockSize)
	a.WriteBlock(1, junk)
	a.Release()
	b := NewTrackedSnapshot(base)
	defer b.Release()
	short := []byte{1, 2, 3}
	b.WriteBlock(1, short)
	got, err := b.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatal("short write corrupted")
	}
	for i := 3; i < BlockSize; i++ {
		if got[i] != 0 {
			t.Fatalf("recycled buffer leaked stale byte at %d", i)
		}
	}
}
