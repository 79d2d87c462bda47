package blockdev

import "testing"

// FuzzFaultStates drives the fault iterators with an arbitrary write log,
// sector size, and fault kind, and checks the invariants the soundness
// suite relies on: FaultStateCount equals the number of states enumerated,
// no state name repeats within a sweep, the enumeration is deterministic,
// every state carries its epoch's persistence interval, and the
// fingerprint predicted for Seen, the incremental tracked fingerprint and
// the from-scratch overlay-scan fingerprint of every state agree, and the
// count the scratch applier returns is the number of writes its device saw.
//
// The script decodes one log record per byte (scriptLog): the low three
// bits select a block (device is 8 blocks), the high bits an action —
// mostly writes, with flush and checkpoint barriers mixed in — so the
// fuzzer explores epoch shapes, repeated blocks, and the end-of-device
// wraparound. Records are 1–28 bytes long, so most end mid-word: the 1-, 2-,
// 4- and 8-byte sectors exercise the torn hash's sector-by-sector chaining,
// and the first three tear inside 8-byte words.
func FuzzFaultStates(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xE2, 0x03, 0xF4, 0x05}, byte(0), byte(0))
	f.Add([]byte{0x07, 0x07, 0xE0, 0x01}, byte(3), byte(1))
	f.Add([]byte{0xE0, 0xF0}, byte(1), byte(2)) // writeless: only barriers
	f.Add([]byte{0x10, 0x21, 0xE0, 0x10}, byte(4), byte(0))
	f.Add([]byte{0x00, 0x3A, 0x00}, byte(5), byte(0))
	f.Add([]byte{0x08, 0x19, 0xE0, 0x0A}, byte(6), byte(0)) // 1-byte sectors
	f.Add([]byte{0x11, 0x02, 0x11}, byte(7), byte(0))       // 2-byte sectors
	f.Fuzz(func(t *testing.T, script []byte, sectorSel, kindSel byte) {
		if len(script) > 64 {
			script = script[:64] // bound the state space, not the coverage
		}
		kind := FaultKind(int(kindSel) % NumFaultKinds)
		sector := []int{512, 1024, 2048, BlockSize, 4, 8, 1, 2}[int(sectorSel)%8]
		log := scriptLog(script)
		base := scriptBase(t)
		epochs := Epochs(log)

		want, err := FaultStateCount(log, kind, sector)
		if err != nil {
			t.Fatal(err) // these logs are far from the int64 boundary
		}
		var descs []string
		var fps []uint64
		seen := map[string]bool{}
		var predicted uint64
		opts := FaultEnumOpts{Seen: func(st FaultState, fp uint64) bool {
			checkInterval(t, epochs, st.Epoch, st.Interval)
			predicted = fp
			return false
		}}
		if _, err := ForEachFaultStatePruned(base, log, kind, sector, opts, nil,
			func(st FaultState, crash *Snapshot) bool {
				if seen[st.String()] {
					t.Fatalf("duplicate state %q", st.String())
				}
				seen[st.String()] = true
				descs = append(descs, st.String())
				fp := crash.Fingerprint()
				if fp != predicted {
					t.Fatalf("state %s: predicted fp %016x, constructed %016x", st.String(), predicted, fp)
				}
				fps = append(fps, fp)
				return true
			}); err != nil {
			t.Fatal(err)
		}
		if int64(len(descs)) != want {
			t.Fatalf("enumerated %d states, FaultStateCount says %d", len(descs), want)
		}

		// Determinism and incremental/scratch fingerprint agreement.
		i := 0
		err = ForEachFaultState(log, kind, sector, func(st FaultState, apply func(Device) (int64, error)) bool {
			checkInterval(t, epochs, st.Epoch, st.Interval)
			scratch := NewSnapshot(base)
			dev := &countingDevice{Device: scratch}
			n, err := apply(dev)
			if err != nil {
				t.Fatal(err)
			}
			if n != dev.writes {
				t.Fatalf("state %s: applier says %d writes, the device saw %d", st.String(), n, dev.writes)
			}
			if st.String() != descs[i] || scratch.Fingerprint() != fps[i] {
				t.Fatalf("state %d: scratch %q/%016x vs incremental %q/%016x",
					i, st.String(), scratch.Fingerprint(), descs[i], fps[i])
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
