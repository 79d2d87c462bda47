package blockdev

import (
	"bytes"
	"testing"
)

// scriptLog decodes one record per byte — the encoding FuzzFaultStates
// established: the low three bits select a block on an 8-block device, the
// high bytes mix in flush and checkpoint barriers — so both the unit tests
// and the fuzz targets below explore epoch shapes, repeated blocks, and
// short (zero-padded) writes with the same vocabulary.
func scriptLog(script []byte) []Record {
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
	return log
}

func scriptBase(t testing.TB) *MemDisk {
	base := NewMemDisk(8)
	for b := int64(0); b < 8; b++ {
		if err := base.WriteBlock(b, bytes.Repeat([]byte{0x55 ^ byte(b)}, BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	return base
}

// enumScripts are log shapes with overwrites inside epochs, cross-epoch
// repeats, barriers back to back, and a writeless log.
var enumScripts = [][]byte{
	{0x01, 0x02, 0x01, 0x03, 0xE0, 0x01, 0x01, 0x01},
	{0x10, 0x18, 0x10, 0x10, 0xF0, 0x21, 0x22, 0x23, 0x21},
	{0x05, 0x05, 0x05, 0x05, 0x05},
	{0x01, 0xE0, 0xF0, 0x02, 0x03, 0x04, 0x05, 0x06, 0x02},
	{0xE0, 0xF0},
	{},
}

// checkInterval fails t unless a state of epoch carries its persistence
// interval: the epoch's Checkpoints, 0 for the empty state (epoch -1).
func checkInterval(t testing.TB, epochs []Epoch, epoch, interval int) {
	t.Helper()
	want := 0
	if epoch >= 0 {
		want = epochs[epoch].Checkpoints
	}
	if interval != want {
		t.Fatalf("state in epoch %d: interval %d, want %d", epoch, interval, want)
	}
}

// TestReorderPredictedFingerprints checks the heart of class pruning: the
// fingerprint handed to Seen — computed as an XOR delta before the state is
// constructed — equals the tracked fingerprint of the state once it is.
// Every state of both engines carries its epoch's persistence interval.
func TestReorderPredictedFingerprints(t *testing.T) {
	for si, script := range enumScripts {
		log := scriptLog(script)
		epochs := Epochs(log)
		for k := 0; k <= 3; k++ {
			ForEachReorderState(log, k, func(st ReorderState, _ func(Device) (int64, error)) bool {
				checkInterval(t, epochs, st.Epoch, st.Interval)
				return true
			})
			base := scriptBase(t)
			var predicted uint64
			var predName string
			opts := ReorderEnumOpts{
				Seen: func(st ReorderState, fp uint64) bool {
					checkInterval(t, epochs, st.Epoch, st.Interval)
					predicted, predName = fp, st.String()
					return false
				},
			}
			n := int64(0)
			stats, err := ForEachReorderStatePruned(base, log, k, opts, nil,
				func(st ReorderState, crash *Snapshot) bool {
					n++
					if st.String() != predName {
						t.Fatalf("script %d k=%d: fn got %q, Seen last saw %q", si, k, st.String(), predName)
					}
					if got := crash.Fingerprint(); got != predicted {
						t.Fatalf("script %d k=%d state %s: predicted fp %016x, constructed %016x",
							si, k, st.String(), predicted, got)
					}
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReorderStateCount(log, k)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Visited != n || stats.ClassSkipped != 0 || stats.States() != want {
				t.Fatalf("script %d k=%d: stats %+v, visited %d, count %d", si, k, stats, n, want)
			}
		}
	}
}

// TestFaultPredictedFingerprints is the fault-axis twin: every kind and
// sector size, predicted fingerprint vs constructed fingerprint. Sectors 4
// and 8 pin the torn hash's chaining across sector boundaries: the scripts'
// short records end mid-word, and only 8-byte-aligned boundaries chain.
// Every state of both engines carries its epoch's persistence interval.
func TestFaultPredictedFingerprints(t *testing.T) {
	for si, script := range enumScripts {
		log := scriptLog(script)
		epochs := Epochs(log)
		for kind := FaultKind(0); int(kind) < NumFaultKinds; kind++ {
			for _, sector := range []int{1, 2, 4, 8, 512, 2048, BlockSize} {
				if err := ForEachFaultState(log, kind, sector, func(st FaultState, _ func(Device) (int64, error)) bool {
					checkInterval(t, epochs, st.Epoch, st.Interval)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				base := scriptBase(t)
				var predicted uint64
				var predName string
				opts := FaultEnumOpts{
					Seen: func(st FaultState, fp uint64) bool {
						checkInterval(t, epochs, st.Epoch, st.Interval)
						predicted, predName = fp, st.String()
						return false
					},
				}
				stats, err := ForEachFaultStatePruned(base, log, kind, sector, opts, nil,
					func(st FaultState, crash *Snapshot) bool {
						if st.String() != predName {
							t.Fatalf("script %d %s/%d: fn got %q, Seen last saw %q",
								si, kind, sector, st.String(), predName)
						}
						if got := crash.Fingerprint(); got != predicted {
							t.Fatalf("script %d %s/%d state %s: predicted fp %016x, constructed %016x",
								si, kind, sector, st.String(), predicted, got)
						}
						return true
					})
				if err != nil {
					t.Fatal(err)
				}
				want, err := FaultStateCount(log, kind, sector)
				if err != nil {
					t.Fatal(err)
				}
				if stats.States() != want {
					t.Fatalf("script %d %s/%d: stats %+v vs count %d", si, kind, sector, stats, want)
				}
			}
		}
	}
}

// TestSeenSkipsConstruction checks the other half of the class-prune
// contract: a Seen index that recognizes every fingerprint after its first
// occurrence keeps fn to exactly one call per distinct fingerprint, and the
// accounting still covers the full space.
func TestSeenSkipsConstruction(t *testing.T) {
	for si, script := range enumScripts {
		log := scriptLog(script)
		base := scriptBase(t)
		seen := map[uint64]bool{}
		fnFPs := map[uint64]int{}
		stats, err := ForEachReorderStatePruned(base, log, 2, ReorderEnumOpts{
			Seen: func(st ReorderState, fp uint64) bool {
				if seen[fp] {
					return true
				}
				seen[fp] = true
				return false
			},
		}, nil, func(st ReorderState, crash *Snapshot) bool {
			fnFPs[crash.Fingerprint()]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReorderStateCount(log, 2)
		if err != nil {
			t.Fatal(err)
		}
		if stats.States() != want {
			t.Fatalf("script %d: stats %+v vs count %d", si, stats, want)
		}
		for fp, n := range fnFPs {
			if n != 1 {
				t.Fatalf("script %d: fingerprint %016x constructed %d times under a total Seen index", si, fp, n)
			}
		}
		if int64(len(fnFPs)) != stats.Visited {
			t.Fatalf("script %d: %d distinct fps vs %d visited", si, len(fnFPs), stats.Visited)
		}
	}
}
