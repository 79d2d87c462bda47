package blockdev

import (
	"bytes"
	"testing"
)

// FuzzFaultStates drives the fault iterators with an arbitrary write log,
// sector size, and fault kind, and checks the invariants the soundness
// suite relies on: FaultStateCount equals the number of states enumerated,
// no Desc repeats within a sweep, the enumeration is deterministic, and the
// incremental tracked fingerprint of every state equals the from-scratch
// overlay-scan fingerprint of the same state.
//
// The script decodes one log record per byte: the low three bits select a
// block (device is 8 blocks), the high bits an action — mostly writes, with
// flush and checkpoint barriers mixed in — so the fuzzer explores epoch
// shapes, repeated blocks, and the end-of-device wraparound.
func FuzzFaultStates(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xE2, 0x03, 0xF4, 0x05}, byte(0), byte(0))
	f.Add([]byte{0x07, 0x07, 0xE0, 0x01}, byte(3), byte(1))
	f.Add([]byte{0xE0, 0xF0}, byte(1), byte(2)) // writeless: only barriers
	f.Fuzz(func(t *testing.T, script []byte, sectorSel, kindSel byte) {
		if len(script) > 64 {
			script = script[:64] // bound the state space, not the coverage
		}
		kind := FaultKind(int(kindSel) % NumFaultKinds)
		sector := []int{512, 1024, 2048, BlockSize}[int(sectorSel)%4]

		var log []Record
		for i, b := range script {
			seq := int64(i + 1)
			switch {
			case b >= 0xF0:
				log = append(log, Record{Seq: seq, Kind: RecCheckpoint, Checkpoint: i})
			case b >= 0xE0:
				log = append(log, Record{Seq: seq, Kind: RecFlush})
			default:
				data := bytes.Repeat([]byte{b ^ byte(i)}, 1+int(b>>3)%BlockSize)
				log = append(log, Record{Seq: seq, Kind: RecWrite, Block: int64(b % 8), Data: data})
			}
		}

		base := NewMemDisk(8)
		for b := int64(0); b < 8; b++ {
			if err := base.WriteBlock(b, bytes.Repeat([]byte{0x55 ^ byte(b)}, BlockSize)); err != nil {
				t.Fatal(err)
			}
		}

		want, err := FaultStateCount(log, kind, sector)
		if err != nil {
			t.Fatal(err) // these logs are far from the int64 boundary
		}
		var descs []string
		var fps []uint64
		seen := map[string]bool{}
		if _, err := ForEachFaultStatePruned(base, log, kind, sector, FaultEnumOpts{}, nil,
			func(st FaultState, crash *Snapshot) bool {
				if seen[st.Desc] {
					t.Fatalf("duplicate Desc %q", st.Desc)
				}
				seen[st.Desc] = true
				descs = append(descs, st.Desc)
				fps = append(fps, crash.Fingerprint())
				return true
			}); err != nil {
			t.Fatal(err)
		}
		if int64(len(descs)) != want {
			t.Fatalf("enumerated %d states, FaultStateCount says %d", len(descs), want)
		}

		// Determinism and incremental/scratch fingerprint agreement.
		i := 0
		err = ForEachFaultState(log, kind, sector, func(st FaultState, apply func(Device) error) bool {
			scratch := NewSnapshot(base)
			if err := apply(scratch); err != nil {
				t.Fatal(err)
			}
			if st.Desc != descs[i] || scratch.Fingerprint() != fps[i] {
				t.Fatalf("state %d: scratch %q/%016x vs incremental %q/%016x",
					i, st.Desc, scratch.Fingerprint(), descs[i], fps[i])
			}
			i++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(i) != want {
			t.Fatalf("scratch enumerated %d of %d states", i, want)
		}
	})
}
