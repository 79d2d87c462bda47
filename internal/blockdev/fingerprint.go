package blockdev

import "encoding/binary"

// Fingerprinting supports representative crash-state pruning (after Gu et
// al., "Scalable and Accurate Application-Level Crash-Consistency Testing
// via Representative Testing"): most crash states constructed during a
// campaign are byte-identical to one already checked, so the checker keys a
// verdict cache on a content hash of the state instead of re-running the
// oracle. A crash state is a COW overlay over a pristine base image, so its
// identity is exactly the set of dirty blocks and their contents.
//
// The fingerprint is *incremental*: it is the XOR of one avalanche-mixed
// contribution per dirty block, where a block's contribution depends only on
// its number and its final contents. XOR makes the combination
// order-independent (no per-state sort of the dirty set) and removable (an
// overwrite XORs the old contribution out and the new one in). A tracked
// snapshot hashes lazily: a write only marks its block stale, and reading
// the fingerprint hashes each block written since the last read once. A
// read therefore costs one block hash per block written since the previous
// read, instead of the O(dirty · log dirty) sort-and-rehash of the whole
// overlay that used to run for every constructed crash state; writes after
// the last read — recovery's, in a crash-state fork — are never hashed.

// FNV-1a parameters, exported so fingerprint composers elsewhere (the
// crashmonkey oracle hasher) stay bit-compatible with HashBytes.
const (
	FNVOffset uint64 = 14695981039346656037
	FNVPrime  uint64 = 1099511628211
)

// HashBytes folds b into an FNV-1a style hash, consuming eight bytes per
// round so fingerprinting block-sized buffers stays off the profile.
func HashBytes(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * FNVPrime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * FNVPrime
	}
	return h
}

// mix64 is the splitmix64 finalizer. Per-block contributions are combined
// by XOR, which cancels structured bit patterns; avalanching each
// contribution first makes the combined hash behave like a random function
// of the dirty set.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// BlockContribution returns the fingerprint contribution of one dirty block:
// a mixed hash of the block number and its full (zero-padded) contents. A
// snapshot's fingerprint is the XOR of the contributions of its dirty set.
func BlockContribution(n int64, data []byte) uint64 {
	h := (FNVOffset ^ uint64(n)) * FNVPrime
	h = HashBytes(h, data)
	return mix64(h)
}

// Fingerprint returns the content hash of the overlay: the XOR of each dirty
// block's BlockContribution. Two snapshots of the same base with equal
// fingerprints hold byte-identical device contents. Tracked snapshots
// (NewTrackedSnapshot) settle their stale blocks and answer from the
// incrementally maintained value; untracked snapshots scan their overlay —
// the from-scratch path the incremental one is cross-checked against
// (docs/TESTING.md).
func (s *Snapshot) Fingerprint() uint64 {
	if s.tracked {
		s.settle()
		return s.fp
	}
	var fp uint64
	for n, b := range s.overlay {
		fp ^= BlockContribution(n, b)
	}
	return fp
}
