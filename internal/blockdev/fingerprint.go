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

// blockSeed is the hash state a contribution of block n starts from.
func blockSeed(n int64) uint64 { return (FNVOffset ^ uint64(n)) * FNVPrime }

// BlockContribution returns the fingerprint contribution of one dirty block:
// a mixed hash of the block number and its full (zero-padded) contents. A
// snapshot's fingerprint is the XOR of the contributions of its dirty set.
func BlockContribution(n int64, data []byte) uint64 {
	return mix64(HashBytes(blockSeed(n), data))
}

// hashPadded folds data into h as whole 8-byte words, the last one
// zero-padded when data ends mid-word, as a zero-padded block holds it. It
// returns the hash and the bytes folded: len(data) rounded up to a word.
func hashPadded(h uint64, data []byte) (uint64, int) {
	words := len(data) &^ 7
	h = HashBytes(h, data[:words])
	if words == len(data) {
		return h, words
	}
	var w [8]byte
	copy(w[:], data[words:])
	return HashBytes(h, w[:]), words + 8
}

// paddedContribution is the contribution of block n once data is written to
// it: Snapshot.WriteBlock stores every write as a zero-padded full block.
// It hashes the padding from the shared zero block instead of assembling
// the padded copy.
func paddedContribution(n int64, data []byte) uint64 {
	h, folded := hashPadded(blockSeed(n), data)
	return mix64(HashBytes(h, zeroBlock[folded:]))
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
