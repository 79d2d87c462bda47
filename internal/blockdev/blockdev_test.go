package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMemDiskReadWrite(t *testing.T) {
	d := NewMemDisk(8)
	defer d.Recycle()
	if d.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d", d.NumBlocks())
	}
	// Unwritten blocks read as zeroes.
	b, err := d.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != BlockSize || !bytes.Equal(b, make([]byte, BlockSize)) {
		t.Fatal("fresh block not zeroed")
	}
	data := []byte("hello")
	if err := d.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	b, _ = d.ReadBlock(3)
	if !bytes.Equal(b[:5], data) {
		t.Fatalf("read back %q", b[:5])
	}
	// Short writes are zero-padded to the block.
	if !bytes.Equal(b[5:], make([]byte, BlockSize-5)) {
		t.Fatal("short write not zero padded")
	}
}

func TestMemDiskBounds(t *testing.T) {
	d := NewMemDisk(2)
	defer d.Recycle()
	if _, err := d.ReadBlock(2); err == nil {
		t.Fatal("expected out-of-range read error")
	}
	if _, err := d.ReadBlock(-1); err == nil {
		t.Fatal("expected out-of-range read error")
	}
	if err := d.WriteBlock(2, nil); err == nil {
		t.Fatal("expected out-of-range write error")
	}
	if err := d.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("expected oversize write error")
	}
}

func TestWriteCopiesCallerBuffer(t *testing.T) {
	d := NewMemDisk(1)
	defer d.Recycle()
	buf := []byte{1, 2, 3}
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	b, _ := d.ReadBlock(0)
	if b[0] != 1 {
		t.Fatal("device must copy data on write")
	}
}

func TestSnapshotCOW(t *testing.T) {
	base := NewMemDisk(4)
	if err := base.WriteBlock(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	s := NewSnapshot(base)
	defer s.Release()

	// Reads fall through to base.
	b, err := s.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:4]) != "base" {
		t.Fatalf("read through = %q", b[:4])
	}

	// Writes go to the overlay only.
	if err := s.WriteBlock(1, []byte("over")); err != nil {
		t.Fatal(err)
	}
	b, _ = s.ReadBlock(1)
	if string(b[:4]) != "over" {
		t.Fatalf("overlay read = %q", b[:4])
	}
	bb, _ := base.ReadBlock(1)
	if string(bb[:4]) != "base" {
		t.Fatal("base device was mutated by snapshot write")
	}

	if got := s.DirtyBlocks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DirtyBlocks = %v", got)
	}

	// Reset drops the overlay.
	s.Reset()
	b, _ = s.ReadBlock(1)
	if string(b[:4]) != "base" {
		t.Fatal("Reset did not restore base view")
	}
}

func TestSnapshotBounds(t *testing.T) {
	s := NewSnapshot(NewMemDisk(2))
	defer s.Release()
	if err := s.WriteBlock(5, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestRecorderLogAndCheckpoint(t *testing.T) {
	base := NewMemDisk(8)
	r := NewRecorder(base)
	defer r.Release()

	if err := r.WriteBlock(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	cp1 := r.Checkpoint()
	if cp1 != 1 {
		t.Fatalf("first checkpoint = %d", cp1)
	}
	if err := r.WriteBlock(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	cp2 := r.Checkpoint()
	if cp2 != 2 || r.Checkpoints() != 2 {
		t.Fatalf("checkpoint bookkeeping: cp2=%d n=%d", cp2, r.Checkpoints())
	}

	log := r.Log()
	if len(log) != 5 {
		t.Fatalf("log length = %d, want 5", len(log))
	}
	// Sequence numbers strictly increase.
	for i := 1; i < len(log); i++ {
		if log[i].Seq <= log[i-1].Seq {
			t.Fatal("sequence numbers must strictly increase")
		}
	}
	if r.WritesRecorded() != 2 {
		t.Fatalf("WritesRecorded = %d", r.WritesRecorded())
	}

	// Writes land in the recorder's overlay, never in the base.
	if b, _ := r.ReadBlock(0); b[0] != 'a' {
		t.Fatal("recorder does not read back its own write")
	}
	if b, _ := base.ReadBlock(0); b[0] != 0 {
		t.Fatal("recorder wrote through to its base")
	}
}

func TestRecorderDataIsCopied(t *testing.T) {
	r := NewRecorder(NewMemDisk(1))
	defer r.Release()
	buf := []byte{7}
	if err := r.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 8
	if r.Log()[0].Data[0] != 7 {
		t.Fatal("recorder must copy written data")
	}
}

// TestRecorderOverlaysBase: the recorder is a copy-on-write device of its
// own — range and size checks, zero-padded reads of short writes, views that
// stay put across later writes, and a base it never touches.
func TestRecorderOverlaysBase(t *testing.T) {
	base := NewMemDisk(4)
	if err := base.WriteBlock(3, []byte("base")); err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(base)
	defer r.Release()
	for _, n := range []int64{-1, 4} {
		if err := r.WriteBlock(n, []byte{1}); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("write of block %d: err = %v, want ErrOutOfRange", n, err)
		}
	}
	if err := r.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	if len(r.Log()) != 0 {
		t.Fatalf("rejected writes were recorded: %d records", len(r.Log()))
	}

	full := bytes.Repeat([]byte{0xEE}, BlockSize)
	if err := r.WriteBlock(0, full); err != nil {
		t.Fatal(err)
	}
	v0, _ := r.ReadBlockView(0)
	if err := r.WriteBlock(0, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if got := r.Log()[1].Data; string(got) != "ab" {
		t.Fatalf("short write recorded as %q", got)
	}
	want := make([]byte, BlockSize)
	copy(want, "ab")
	if b, _ := r.ReadBlock(0); !bytes.Equal(b, want) {
		t.Fatal("short write does not read back zero-padded")
	}
	if v, _ := r.ReadBlockView(0); !bytes.Equal(v, want) {
		t.Fatal("short write's view is not zero-padded")
	}
	if !bytes.Equal(v0, full) {
		t.Fatal("a later write changed an earlier write's view")
	}
	if b, _ := r.ReadBlock(3); string(b[:4]) != "base" {
		t.Fatalf("never-written block reads %q, want the base's", b[:4])
	}
	if v, _ := r.ReadBlockView(3); string(v[:4]) != "base" {
		t.Fatalf("never-written block's view is %q, want the base's", v[:4])
	}
	if b, _ := base.ReadBlock(0); b[0] != 0 {
		t.Fatal("recorder wrote through to its base")
	}
	if got := r.DirtyBytes(); got != BlockSize {
		t.Fatalf("DirtyBytes = %d after two writes to one block, want %d", got, BlockSize)
	}
}

// TestRecorderReleasePoisons: Release pools every record buffer, not just
// each block's latest, and the test hook marks them as it does.
func TestRecorderReleasePoisons(t *testing.T) {
	defer func(old byte) { recordPoison = old }(recordPoison)
	recordPoison = 0xA5
	r := NewRecorder(NewMemDisk(2))
	for _, d := range [][]byte{{1}, {2}, {3}} {
		if err := r.WriteBlock(0, d); err != nil {
			t.Fatal(err)
		}
	}
	r.Checkpoint()
	bufs := make([][]byte, 0, 3)
	for _, rec := range r.Log() {
		if rec.Kind == RecWrite {
			bufs = append(bufs, rec.Data[:BlockSize])
		}
	}
	r.Release()
	for i, b := range bufs {
		if b[0] != 0xA5 || b[BlockSize-1] != 0xA5 {
			t.Fatalf("record buffer %d was not poisoned on Release", i)
		}
	}
}

func TestReplayToCheckpoint(t *testing.T) {
	base := NewMemDisk(8)
	r := NewRecorder(base)
	defer r.Release()

	mustWrite := func(n int64, s string) {
		t.Helper()
		if err := r.WriteBlock(n, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(0, "one")
	r.Checkpoint() // cp 1: block0="one"
	mustWrite(0, "two")
	mustWrite(1, "extra")
	r.Checkpoint()       // cp 2: block0="two", block1="extra"
	mustWrite(2, "post") // after the last checkpoint: never in any crash state

	for cp, want := range map[int][2]string{
		1: {"one", "\x00"},
		2: {"two", "e"},
	} {
		crash := NewSnapshot(base)
		if _, err := ReplayToCheckpoint(crash, r.Log(), cp); err != nil {
			t.Fatalf("cp %d: %v", cp, err)
		}
		b0, _ := crash.ReadBlock(0)
		if string(b0[:3]) != want[0] {
			t.Errorf("cp %d block0 = %q, want %q", cp, b0[:3], want[0])
		}
		b1, _ := crash.ReadBlock(1)
		if b1[0] != want[1][0] {
			t.Errorf("cp %d block1[0] = %q, want %q", cp, b1[0], want[1][0])
		}
		b2, _ := crash.ReadBlock(2)
		if b2[0] != 0 {
			t.Errorf("cp %d: write after checkpoint leaked into crash state", cp)
		}
	}

	if _, err := ReplayToCheckpoint(NewSnapshot(base), r.Log(), 3); err == nil {
		t.Fatal("expected error for missing checkpoint")
	}
	if _, err := ReplayToCheckpoint(NewSnapshot(base), r.Log(), 0); err == nil {
		t.Fatal("expected error for checkpoint 0")
	}
}

func TestReplayPrefix(t *testing.T) {
	base := NewMemDisk(4)
	r := NewRecorder(base)
	defer r.Release()
	for i := int64(0); i < 3; i++ {
		if err := r.WriteBlock(i, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	r.Checkpoint()

	for n := 0; n <= 3; n++ {
		crash := NewSnapshot(base)
		applied, err := ReplayPrefix(crash, r.Log(), n)
		if err != nil {
			t.Fatal(err)
		}
		if applied != n {
			t.Fatalf("applied = %d, want %d", applied, n)
		}
		for i := int64(0); i < 3; i++ {
			b, _ := crash.ReadBlock(i)
			want := byte(0)
			if int(i) < n {
				want = byte(i + 1)
			}
			if b[0] != want {
				t.Fatalf("prefix %d block %d = %d, want %d", n, i, b[0], want)
			}
		}
	}
}

func TestCountWritesBetweenCheckpoints(t *testing.T) {
	r := NewRecorder(NewMemDisk(8))
	defer r.Release()
	w := func() {
		if err := r.WriteBlock(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	w()
	w()
	r.Checkpoint()
	w()
	r.Checkpoint()
	r.Checkpoint()
	got := CountWritesBetweenCheckpoints(r.Log())
	want := []int{2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// Property: for any sequence of writes interleaved with checkpoints, the
// crash state at the final checkpoint equals the state the recording device
// read back at the moment the checkpoint was taken.
func TestQuickReplayMatchesLiveState(t *testing.T) {
	f := func(ops []uint16) bool {
		base := NewMemDisk(16)
		r := NewRecorder(base)
		defer r.Release()
		var wantAtCP [][]byte
		cpCount := 0
		for _, op := range ops {
			blk := int64(op % 16)
			if op%5 == 0 {
				r.Checkpoint()
				cpCount++
				// Snapshot the live state at this checkpoint.
				img := make([]byte, 0, 16)
				for i := int64(0); i < 16; i++ {
					b, _ := r.ReadBlock(i)
					img = append(img, b[0])
				}
				wantAtCP = append(wantAtCP, img)
			} else {
				if err := r.WriteBlock(blk, []byte{byte(op >> 8)}); err != nil {
					return false
				}
			}
		}
		for cp := 1; cp <= cpCount; cp++ {
			crash := NewSnapshot(base)
			if _, err := ReplayToCheckpoint(crash, r.Log(), cp); err != nil {
				return false
			}
			for i := int64(0); i < 16; i++ {
				b, _ := crash.ReadBlock(i)
				if b[0] != wantAtCP[cp-1][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
