package blockdev

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var allFaultKinds = []FaultKind{FaultTorn, FaultCorrupt, FaultMisdirect}

var faultTestLogs = [][]Record{
	testLog("w0", "w1", "w2", "F", "w3", "w4", "C", "w5"),
	testLog("w0", "F"),
	testLog("F", "C"),
	testLog("w0", "w1", "w2", "w3"),
	testLog("w3", "w3", "C", "w7"), // repeated block + last-block wraparound
}

func TestFaultStateCountMatchesEnumeration(t *testing.T) {
	for li, log := range faultTestLogs {
		for _, kind := range allFaultKinds {
			for _, sector := range []int{512, 1024, BlockSize} {
				n := 0
				err := ForEachFaultState(log, kind, sector, func(FaultState, func(Device) (int64, error)) bool {
					n++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := FaultStateCount(log, kind, sector)
				if err != nil {
					t.Fatal(err)
				}
				if int64(n) != want {
					t.Fatalf("log %d %s sector %d: enumerated %d states, FaultStateCount says %d",
						li, kind, sector, n, want)
				}
			}
		}
	}
	// A writeless log still has its one (empty) crash state per kind.
	for _, kind := range allFaultKinds {
		if got, err := FaultStateCount(testLog("F", "C"), kind, 512); err != nil || got != 1 {
			t.Fatalf("writeless log %s: %d states (err %v), want 1", kind, got, err)
		}
	}
	// Invalid sector sizes are refused, not mis-counted.
	for _, sector := range []int{0, -512, 3, 8192} {
		if _, err := FaultStateCount(faultTestLogs[0], FaultTorn, sector); err == nil {
			t.Fatalf("sector %d: want error", sector)
		}
	}
}

// faultSweepFingerprints enumerates one fault sweep with the unpruned
// ForEachFaultStatePruned over base and returns the name and fingerprint
// sequences.
func faultSweepFingerprints(t *testing.T, base Device, log []Record, kind FaultKind, sector int) ([]string, []uint64) {
	t.Helper()
	var descs []string
	var fps []uint64
	if _, err := ForEachFaultStatePruned(base, log, kind, sector, FaultEnumOpts{}, nil,
		func(st FaultState, crash *Snapshot) bool {
			descs = append(descs, st.String())
			fps = append(fps, crash.Fingerprint())
			return true
		}); err != nil {
		t.Fatal(err)
	}
	return descs, fps
}

// TestFaultStatesAreDeterministic is the enumeration half of the soundness
// cross-check suite: two enumerations of every iterator yield identical
// name/fingerprint sequences, no name repeats within a sweep, and the
// from-scratch applier reconstructs byte-identical states (scan fingerprint
// equal to the incremental tracked fingerprint).
func TestFaultStatesAreDeterministic(t *testing.T) {
	for li, log := range faultTestLogs {
		base := NewMemDisk(8)
		// Non-zero base content so torn tails and stale blocks are visible.
		for b := int64(0); b < 8; b++ {
			if err := base.WriteBlock(b, bytes.Repeat([]byte{0xA0 + byte(b)}, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		for _, kind := range allFaultKinds {
			for _, sector := range []int{512, BlockSize} {
				descs1, fps1 := faultSweepFingerprints(t, base, log, kind, sector)
				descs2, fps2 := faultSweepFingerprints(t, base, log, kind, sector)
				if len(descs1) != len(descs2) {
					t.Fatalf("log %d %s: runs enumerate %d vs %d states", li, kind, len(descs1), len(descs2))
				}
				seen := make(map[string]bool, len(descs1))
				for i := range descs1 {
					if descs1[i] != descs2[i] || fps1[i] != fps2[i] {
						t.Fatalf("log %d %s state %d: %q/%016x vs %q/%016x",
							li, kind, i, descs1[i], fps1[i], descs2[i], fps2[i])
					}
					if seen[descs1[i]] {
						t.Fatalf("log %d %s: duplicate state %q", li, kind, descs1[i])
					}
					seen[descs1[i]] = true
				}
				// Scratch appliers reconstruct the same states in the same order.
				i := 0
				err := ForEachFaultState(log, kind, sector, func(st FaultState, apply func(Device) (int64, error)) bool {
					scratch := NewSnapshot(base)
					if _, err := apply(scratch); err != nil {
						t.Fatal(err)
					}
					if st.String() != descs1[i] || scratch.Fingerprint() != fps1[i] {
						t.Fatalf("log %d %s state %d: scratch %q/%016x vs incremental %q/%016x",
							li, kind, i, st.String(), scratch.Fingerprint(), descs1[i], fps1[i])
					}
					i++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if i != len(descs1) {
					t.Fatalf("log %d %s: scratch enumerates %d of %d states", li, kind, i, len(descs1))
				}
			}
		}
	}
}

// TestFaultTornDegeneratesToPrefixSweep pins the blockdev half of the
// torn/k=0 equivalence: at sector == BlockSize a torn sweep has no torn
// variants left and must equal the reorder k=0 sweep state for state —
// same names, same device contents.
func TestFaultTornDegeneratesToPrefixSweep(t *testing.T) {
	for li, log := range faultTestLogs {
		base := NewMemDisk(8)
		tornDescs, tornFPs := faultSweepFingerprints(t, base, log, FaultTorn, BlockSize)

		var reorderDescs []string
		var reorderFPs []uint64
		if _, err := ForEachReorderStatePruned(base, log, 0, ReorderEnumOpts{}, nil,
			func(st ReorderState, crash *Snapshot) bool {
				reorderDescs = append(reorderDescs, st.String())
				reorderFPs = append(reorderFPs, crash.Fingerprint())
				return true
			}); err != nil {
			t.Fatal(err)
		}
		if len(tornDescs) != len(reorderDescs) {
			t.Fatalf("log %d: torn@%d enumerates %d states, reorder k=0 %d",
				li, BlockSize, len(tornDescs), len(reorderDescs))
		}
		for i := range tornDescs {
			if tornDescs[i] != reorderDescs[i] || tornFPs[i] != reorderFPs[i] {
				t.Fatalf("log %d state %d: torn %q/%016x vs reorder %q/%016x",
					li, i, tornDescs[i], tornFPs[i], reorderDescs[i], reorderFPs[i])
			}
		}
	}
}

// TestFaultStateSemantics pins the on-device meaning of each fault: the torn
// tail keeps the block's previous contents, corruption zeroes or complements
// the whole block, and a misdirected write lands one block over (wrapping)
// while the intended block stays stale.
func TestFaultStateSemantics(t *testing.T) {
	newBase := func() *MemDisk {
		base := NewMemDisk(8)
		for b := int64(0); b < 8; b++ {
			if err := base.WriteBlock(b, bytes.Repeat([]byte{0xA0 + byte(b)}, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		return base
	}
	block := func(t *testing.T, dev Device, n int64) []byte {
		t.Helper()
		buf := make([]byte, BlockSize)
		if err := ReadInto(dev, n, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	log := testLog("w3", "w7") // w3 carries 16 bytes of 0x01, w7 of 0x02
	find := func(t *testing.T, kind FaultKind, desc string) *Snapshot {
		t.Helper()
		var got *Snapshot
		if _, err := ForEachFaultStatePruned(newBase(), log, kind, 512, FaultEnumOpts{}, nil,
			func(st FaultState, crash *Snapshot) bool {
				if st.String() != desc {
					return true
				}
				// Copy out of the pooled fork so assertions can run after it.
				dst := NewSnapshot(NewMemDisk(8))
				for b := int64(0); b < 8; b++ {
					buf := make([]byte, BlockSize)
					if err := ReadInto(crash, b, buf); err != nil {
						t.Fatal(err)
					}
					if err := dst.WriteBlock(b, buf); err != nil {
						t.Fatal(err)
					}
				}
				got = dst
				return false
			}); err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("state %q not enumerated", desc)
		}
		return got
	}

	t.Run("torn", func(t *testing.T) {
		crash := find(t, FaultTorn, "e0-w0-torn1")
		b3 := block(t, crash, 3)
		if !bytes.Equal(b3[:16], bytes.Repeat([]byte{0x01}, 16)) {
			t.Fatalf("torn head lost the write: % x", b3[:16])
		}
		if !bytes.Equal(b3[16:512], make([]byte, 496)) {
			t.Fatal("short write must persist zero-padded within its torn sectors")
		}
		if !bytes.Equal(b3[512:], bytes.Repeat([]byte{0xA3}, BlockSize-512)) {
			t.Fatal("torn tail must keep the block's previous contents")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		crash := find(t, FaultCorrupt, "e0-w0-zero")
		if !bytes.Equal(block(t, crash, 3), make([]byte, BlockSize)) {
			t.Fatal("zeroed block must read as zeroes")
		}
		crash = find(t, FaultCorrupt, "e0-w1-flip")
		b7 := block(t, crash, 7)
		want := append(bytes.Repeat([]byte{^byte(0x02)}, 16), bytes.Repeat([]byte{0xFF}, BlockSize-16)...)
		if !bytes.Equal(b7, want) {
			t.Fatalf("flipped block: got % x…, want complement of the written block", b7[:20])
		}
	})
	t.Run("misdirect", func(t *testing.T) {
		crash := find(t, FaultMisdirect, "e0-w1-mis")
		// w7's payload lands on block 0 (wraparound); block 7 keeps w3's
		// epoch-mate outcome: stale base contents except where w3 wrote.
		b0 := block(t, crash, 0)
		if !bytes.Equal(b0[:16], bytes.Repeat([]byte{0x02}, 16)) {
			t.Fatalf("misdirected write must land on the wrapped block: % x", b0[:16])
		}
		if !bytes.Equal(block(t, crash, 7), bytes.Repeat([]byte{0xA7}, BlockSize)) {
			t.Fatal("intended block must stay stale")
		}
	})
}

// TestStateCountOverflowGuard exercises the shared counting helper at the
// int64 boundary: binomial(2^32, 2) = 2^63 - 2^31 is the largest
// two-element drop count that fits, and one more row overflows. The naive
// iterative formula would already have wrapped on its intermediate product
// for counts well inside the representable range.
func TestStateCountOverflowGuard(t *testing.T) {
	got, err := binomial(1<<32, 2)
	if err != nil {
		t.Fatalf("binomial(2^32, 2) must fit in int64: %v", err)
	}
	if want := math.MaxInt64 - (int64(1)<<31 - 1); got != want {
		t.Fatalf("binomial(2^32, 2) = %d, want %d", got, want)
	}
	if _, err := binomial(1<<32+1, 2); !errors.Is(err, ErrStateCountOverflow) {
		t.Fatalf("binomial(2^32+1, 2): err %v, want ErrStateCountOverflow", err)
	}

	// The same boundary through the public counting surfaces, on synthetic
	// per-epoch sizes (real logs never get close).
	if n, err := reorderCountForSizes([]int64{1 << 32}, 2); !errors.Is(err, ErrStateCountOverflow) {
		t.Fatalf("reorder count at the boundary: n=%d err=%v, want overflow", n, err)
	}
	// Below the boundary the exact value comes back: 1 final + (2^32 - 1)
	// prefixes + C(2^32-1, 1) single-drop states.
	if n, err := reorderCountForSizes([]int64{1<<32 - 1}, 1); err != nil || n != 1+2*(int64(1)<<32-1) {
		t.Fatalf("reorder count below the boundary: n=%d err=%v, want %d", n, err, 1+2*(int64(1)<<32-1))
	}
	if _, err := faultCountForSizes([]int64{math.MaxInt64 / 4}, FaultTorn, 8); !errors.Is(err, ErrStateCountOverflow) {
		t.Fatalf("torn count at the boundary: err %v, want overflow", err)
	}
	if n, err := faultCountForSizes([]int64{math.MaxInt64 - 1}, FaultMisdirect, 8); err != nil || n != math.MaxInt64 {
		t.Fatalf("misdirect count below the boundary: n=%d err=%v, want MaxInt64", n, err)
	}
	if _, err := faultCountForSizes([]int64{math.MaxInt64}, FaultMisdirect, 8); !errors.Is(err, ErrStateCountOverflow) {
		t.Fatalf("misdirect count at the boundary: err %v, want overflow", err)
	}
}

func TestParseFaultKinds(t *testing.T) {
	kinds, err := ParseFaultKinds(" torn, corrupt,misdirect,torn ")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 || kinds[0] != FaultTorn || kinds[1] != FaultCorrupt || kinds[2] != FaultMisdirect {
		t.Fatalf("got %v", kinds)
	}
	if kinds, err := ParseFaultKinds(""); err != nil || kinds != nil {
		t.Fatalf("empty list: %v, %v", kinds, err)
	}
	if _, err := ParseFaultKinds("torn,sideways"); err == nil {
		t.Fatal("unknown kind must be refused")
	}

	m := FaultModel{Kinds: []FaultKind{FaultMisdirect, FaultTorn}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.Canonical()
	if c.Sector() != 512 || c.String() != "torn+misdirect" {
		t.Fatalf("canonical: sector %d, kinds %q", c.Sector(), c.String())
	}
	if err := (FaultModel{Kinds: []FaultKind{FaultTorn, FaultTorn}}).Validate(); err == nil {
		t.Fatal("duplicate kind must be refused")
	}
	if err := (FaultModel{Kinds: []FaultKind{FaultTorn}, SectorSize: 3}).Validate(); err == nil {
		t.Fatal("non-divisor sector must be refused")
	}
}
