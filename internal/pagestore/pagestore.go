// Package pagestore interns immutable byte chunks of up to one page by
// content, so that equal chunks read at different times share one copy.
//
// A chunk is found by a hash of its bytes and accepted only after a byte
// comparison, so the store trusts no hash: two different chunks under one
// hash are both held, each returned only for its own bytes. Chunks handed
// out are shared by every caller that interned equal bytes and must never
// be modified.
package pagestore

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// PageSize is the largest chunk a store holds: the file-content page and
// device block size.
const PageSize = 4096

// Store holds one copy of each distinct chunk interned since its index last
// started over. The zero value is an empty store.
type Store struct {
	// hash, when set, replaces the chunk hash (tests plant collisions).
	hash func([]byte) uint64

	mu sync.Mutex
	// index holds the first chunk interned under each hash, and more any
	// further chunks under a hash already taken.
	index map[uint64][]byte
	more  map[uint64][][]byte
	// held is the number of bytes copied in since the index started over.
	held atomic.Int64
}

// New returns an empty store.
func New() *Store { return &Store{} }

// shared is the process-wide store behind Shared.
var shared = New()

// Shared returns the process-wide store: recovery interns every verified
// payload's chunks and every decoded file page there.
func Shared() *Store { return shared }

// seed keys the chunk hash for the life of the process.
var seed = maphash.MakeSeed()

func (s *Store) sum(b []byte) uint64 {
	if s.hash != nil {
		return s.hash(b)
	}
	return maphash.Bytes(seed, b)
}

// Intern returns a held chunk equal to b, copying b in when the store holds
// none; copied reports whether it did. b must be at most PageSize bytes and
// is not retained. The chunk returned has capacity equal to its length, so
// an append onto it copies. An empty b returns nil.
func (s *Store) Intern(b []byte) (chunk []byte, copied bool) {
	if len(b) == 0 {
		return nil, false
	}
	if len(b) > PageSize {
		panic("pagestore: chunk larger than a page")
	}
	h := s.sum(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	first, taken := s.index[h]
	if taken {
		if bytes.Equal(first, b) {
			return first, false
		}
		for _, c := range s.more[h] {
			if bytes.Equal(c, b) {
				return c, false
			}
		}
	}
	chunk = make([]byte, len(b))
	copy(chunk, b)
	switch {
	case !taken && s.index == nil:
		s.index = map[uint64][]byte{h: chunk}
	case !taken:
		s.index[h] = chunk
	case s.more == nil:
		s.more = map[uint64][][]byte{h: {chunk}}
	default:
		s.more[h] = append(s.more[h], chunk)
	}
	s.held.Add(int64(len(chunk)))
	return chunk, true
}

// Chunks returns the number of chunks n bytes cut into at multiples of
// PageSize.
func Chunks(n int) int { return (n + PageSize - 1) / PageSize }

// InternAll interns b cut at multiples of PageSize, chunk i into dst[i];
// dst holds exactly Chunks(len(b)) chunks. It returns how many bytes it
// copied in and how many chunks it found held.
func (s *Store) InternAll(dst [][]byte, b []byte) (copied, held int) {
	for i := range dst {
		c, fresh := s.Intern(b[i*PageSize : min((i+1)*PageSize, len(b))])
		dst[i] = c
		if fresh {
			copied += len(c)
		} else {
			held++
		}
	}
	return copied, held
}

// Held returns the number of bytes copied in since the index started over.
func (s *Store) Held() int { return int(s.held.Load()) }

// Reset starts the index over: chunks already handed out stay valid, but
// are no longer found, so equal bytes interned later are copied again.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.index)
	clear(s.more)
	s.held.Store(0)
}
