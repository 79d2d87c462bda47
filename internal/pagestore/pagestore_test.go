package pagestore

import (
	"bytes"
	"sync"
	"testing"
)

func patterned(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) + seed
	}
	return p
}

// TestCollidingChunksKeepTheirBytes plants different chunks under one hash:
// each must be copied in once and come back, for its own bytes only, as the
// chunk first interned for them. A store that took a hash match for a byte
// match would hand the first chunk back for the others.
func TestCollidingChunksKeepTheirBytes(t *testing.T) {
	s := &Store{hash: func([]byte) uint64 { return 42 }}
	chunks := [][]byte{patterned(PageSize, 1), patterned(PageSize, 2), patterned(100, 1), patterned(100, 3)}
	held := make([][]byte, len(chunks))
	want := 0
	for i, b := range chunks {
		got, copied := s.Intern(b)
		if !copied || !bytes.Equal(got, b) || cap(got) != len(b) {
			t.Fatalf("chunk %d: copied=%t, equal=%t, cap %d; want a fresh exact-size copy", i, copied, bytes.Equal(got, b), cap(got))
		}
		held[i] = got
		want += len(b)
	}
	for i, b := range chunks {
		got, copied := s.Intern(bytes.Clone(b))
		if copied || &got[0] != &held[i][0] || !bytes.Equal(got, b) {
			t.Fatalf("chunk %d: copied=%t, same chunk=%t, equal=%t; want the chunk held for its own bytes",
				i, copied, &got[0] == &held[i][0], bytes.Equal(got, b))
		}
	}
	if s.Held() != want {
		t.Fatalf("Held() = %d, want %d", s.Held(), want)
	}
	two := append(bytes.Clone(chunks[1]), chunks[2]...)
	got := make([][]byte, Chunks(len(two)))
	if copied, found := s.InternAll(got, two); copied != 0 || found != 2 || &got[0][0] != &held[1][0] || &got[1][0] != &held[2][0] {
		t.Fatalf("InternAll of two held chunks: %d bytes copied, %d found; want both chunks held for their bytes", copied, found)
	}
	s.Reset()
	if s.Held() != 0 {
		t.Fatalf("after Reset, Held() = %d", s.Held())
	}
	if got, copied := s.Intern(chunks[1]); !copied || !bytes.Equal(got, chunks[1]) || !bytes.Equal(held[1], chunks[1]) {
		t.Fatal("after Reset a chunk must be copied again, and chunks handed out before must keep their bytes")
	}
}

// TestInternHeldAllocatesNothing: interning bytes the store holds returns
// the held chunk without a copy or an allocation.
func TestInternHeldAllocatesNothing(t *testing.T) {
	s := New()
	b := patterned(PageSize, 9)
	first, _ := s.Intern(b)
	in := bytes.Clone(b)
	if allocs := testing.AllocsPerRun(100, func() {
		if got, copied := s.Intern(in); copied || &got[0] != &first[0] {
			t.Fatal("a held chunk was not returned")
		}
	}); allocs != 0 {
		t.Fatalf("interning a held chunk allocates %v times, want 0", allocs)
	}
	if got, copied := s.Intern(nil); got != nil || copied {
		t.Fatal("an empty chunk must intern to nil")
	}
}

// TestConcurrentInterns interns overlapping chunks from several goroutines,
// with resets in between: every chunk returned must equal its input, and
// equal inputs between resets must share one chunk.
func TestConcurrentInterns(t *testing.T) {
	s := &Store{hash: func(b []byte) uint64 { return uint64(b[0] % 3) }} // many collisions
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				b := patterned(1+i%7*600, byte(i%11))
				got, _ := s.Intern(b)
				if !bytes.Equal(got, b) {
					t.Errorf("worker %d, intern %d: other bytes came back", w, i)
					return
				}
				if w == 0 && i%50 == 49 {
					s.Reset()
				}
			}
		}()
	}
	wg.Wait()
	s.Reset()
	a, _ := s.Intern(patterned(500, 1))
	b, copied := s.Intern(patterned(500, 1))
	if copied || &a[0] != &b[0] {
		t.Fatalf("equal chunks between resets must share one copy (copied=%t)", copied)
	}
}
