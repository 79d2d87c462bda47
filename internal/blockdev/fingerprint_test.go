package blockdev

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestFingerprintOrderIndependent(t *testing.T) {
	base := NewMemDisk(64)
	a := NewSnapshot(base)
	defer a.Release()
	b := NewSnapshot(base)
	defer b.Release()
	one, two := make([]byte, BlockSize), make([]byte, BlockSize)
	one[0], two[0] = 1, 2

	a.WriteBlock(3, one)
	a.WriteBlock(9, two)
	b.WriteBlock(9, two)
	b.WriteBlock(3, one)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("write order changed the fingerprint")
	}
}

func TestFingerprintDistinguishesContentAndPlacement(t *testing.T) {
	base := NewMemDisk(64)
	one, two := make([]byte, BlockSize), make([]byte, BlockSize)
	one[100], two[100] = 7, 8

	mk := func(block int64, data []byte) uint64 {
		s := NewSnapshot(base)
		defer s.Release()
		s.WriteBlock(block, data)
		return s.Fingerprint()
	}
	if mk(3, one) == mk(3, two) {
		t.Fatal("different content, same fingerprint")
	}
	if mk(3, one) == mk(4, one) {
		t.Fatal("same content at different block, same fingerprint")
	}
}

func TestFingerprintTracksOverwrites(t *testing.T) {
	base := NewMemDisk(8)
	data := make([]byte, BlockSize)
	data[0] = 1

	a := NewSnapshot(base)
	defer a.Release()
	a.WriteBlock(0, data)
	want := a.Fingerprint()

	// Overwriting a block with new content and then restoring it must
	// converge to the same fingerprint: identity is contents, not history.
	b := NewSnapshot(base)
	defer b.Release()
	other := make([]byte, BlockSize)
	other[0] = 99
	b.WriteBlock(0, other)
	if b.Fingerprint() == want {
		t.Fatal("distinct contents collided")
	}
	b.WriteBlock(0, data)
	if b.Fingerprint() != want {
		t.Fatal("restored contents did not restore the fingerprint")
	}
}

func TestHashBytesTailHandling(t *testing.T) {
	// The word loop plus byte tail must hash every length distinctly from
	// its neighbours (no dropped tail bytes).
	seen := map[uint64]int{}
	for n := 0; n <= 24; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		h := HashBytes(FNVOffset, b)
		if prev, ok := seen[h]; ok {
			t.Fatalf("lengths %d and %d collided", prev, n)
		}
		seen[h] = n
	}
}

// chainWrite is one write of TestLazyFingerprintMatchesScan's chain: the
// level it went to (0 rolling, 1 inner, 2 fork) and the bytes it stored.
type chainWrite struct {
	level int
	block int64
	data  []byte
}

// TestLazyFingerprintMatchesScan drives a base → rolling → inner → fork
// chain of tracked snapshots through random writes, overwrites of settled
// blocks, write-backs of borrowed views and a Reset, reading Fingerprint
// and contribution at random points in between. Every read must agree with
// an untracked snapshot that replays the same writes onto the base and
// scans its overlay: lazy hashing may only move work, never change a value.
func TestLazyFingerprintMatchesScan(t *testing.T) {
	const blocks = 8
	base := scriptBase(t)
	rng := rand.New(rand.NewSource(38))
	var writes []chainWrite
	scan := func(upTo int) *Snapshot {
		ref := NewSnapshot(base)
		for _, w := range writes {
			if w.level <= upTo {
				if err := ref.WriteBlock(w.block, w.data); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ref
	}
	check := func(s *Snapshot, level int, when string) {
		t.Helper()
		ref := scan(level)
		defer ref.Release()
		if got, want := s.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("%s: level %d fingerprint %016x, scan %016x", when, level, got, want)
		}
		for n := int64(0); n < blocks; n++ {
			gc, gok := s.contribution(n)
			wc, wok := ref.contribution(n)
			if gc != wc || gok != wok {
				t.Fatalf("%s: level %d block %d contribution %016x/%v, scan %016x/%v",
					when, level, n, gc, gok, wc, wok)
			}
		}
	}
	// write stores a random payload (sometimes short, sometimes the block's
	// own borrowed view, possibly truncated) and reads the fingerprint or a
	// single contribution a third of the time.
	write := func(s *Snapshot, level int, step int) {
		t.Helper()
		n := int64(rng.Intn(blocks))
		var data []byte
		switch rng.Intn(4) {
		case 0:
			view, err := s.ReadBlockView(n)
			if err != nil {
				t.Fatal(err)
			}
			data = view[:1+rng.Intn(BlockSize)]
		default:
			data = bytes.Repeat([]byte{byte(rng.Intn(256))}, 1+rng.Intn(BlockSize))
		}
		// The reference gets a copy: a borrowed view changes under the write.
		writes = append(writes, chainWrite{level: level, block: n, data: append([]byte(nil), data...)})
		if err := s.WriteBlock(n, data); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			check(s, level, fmt.Sprintf("after write %d", step))
		}
	}

	rolling := NewTrackedSnapshot(base)
	defer rolling.Release()
	for i := 0; i < 40; i++ {
		write(rolling, 0, i)
	}
	check(rolling, 0, "rolling settled")
	inner := NewTrackedSnapshot(rolling)
	defer inner.Release()
	for i := 0; i < 40; i++ {
		write(inner, 1, i)
	}
	check(inner, 1, "inner settled")
	fork := NewTrackedSnapshot(inner)
	defer fork.Release()
	for i := 0; i < 60; i++ {
		write(fork, 2, i)
	}
	check(fork, 2, "fork")
	fork.Reset()
	kept := writes[:0]
	for _, w := range writes {
		if w.level < 2 {
			kept = append(kept, w)
		}
	}
	writes = kept
	check(fork, 2, "after Reset")
	for i := 0; i < 60; i++ {
		write(fork, 2, 100+i)
	}
	check(fork, 2, "fork after Reset")

	// Forks of one settled parent read it concurrently: settling the forks
	// must only read the parent (run under -race).
	want := make([]uint64, 2)
	forks := make([]*Snapshot, 2)
	for i := range forks {
		forks[i] = NewTrackedSnapshot(inner)
		defer forks[i].Release()
		ref := scan(1)
		for j := 0; j < 20; j++ {
			n := int64((i*5 + j*7) % blocks)
			data := bytes.Repeat([]byte{byte(i*50 + j)}, 1+j*100)
			if err := forks[i].WriteBlock(n, data); err != nil {
				t.Fatal(err)
			}
			if err := ref.WriteBlock(n, data); err != nil {
				t.Fatal(err)
			}
		}
		want[i] = ref.Fingerprint()
		ref.Release()
	}
	var wg sync.WaitGroup
	got := make([]uint64, 2)
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); n < blocks; n++ {
				forks[i].contribution(n)
			}
			got[i] = forks[i].Fingerprint()
		}()
	}
	wg.Wait()
	for i := range forks {
		if got[i] != want[i] {
			t.Fatalf("concurrent fork %d: fingerprint %016x, scan %016x", i, got[i], want[i])
		}
	}
}

// TestUnreadForkHashesNothing guards the point of lazy hashing: a tracked
// fork whose fingerprint is never read hashes none of its writes, and one
// read hashes every overlay block exactly once.
func TestUnreadForkHashesNothing(t *testing.T) {
	base := scriptBase(t)
	parent := NewTrackedSnapshot(base)
	defer parent.Release()
	parent.WriteBlock(1, []byte{1})
	fork := NewTrackedSnapshot(parent)
	defer fork.Release()
	for i := 0; i < 20; i++ {
		if err := fork.WriteBlock(int64(i%6), bytes.Repeat([]byte{byte(i)}, 1+i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(fork.contrib) != 0 {
		t.Fatalf("unread fork hashed %d blocks", len(fork.contrib))
	}
	fork.Fingerprint()
	if len(fork.contrib) != len(fork.overlay) {
		t.Fatalf("read fork holds %d contributions for %d overlay blocks", len(fork.contrib), len(fork.overlay))
	}
	for n := range fork.overlay {
		if _, ok := fork.contrib[n]; !ok {
			t.Fatalf("overlay block %d has no contribution after a read", n)
		}
	}
}
