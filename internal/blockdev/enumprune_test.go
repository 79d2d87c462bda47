package blockdev

import (
	"bytes"
	"fmt"
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

// enumScripts are log shapes with overwrites inside epochs (the commute
// cases), cross-epoch repeats, barriers back to back, and a writeless log.
var enumScripts = [][]byte{
	{0x01, 0x02, 0x01, 0x03, 0xE0, 0x01, 0x01, 0x01},
	{0x10, 0x18, 0x10, 0x10, 0xF0, 0x21, 0x22, 0x23, 0x21},
	{0x05, 0x05, 0x05, 0x05, 0x05},
	{0x01, 0xE0, 0xF0, 0x02, 0x03, 0x04, 0x05, 0x06, 0x02},
	{0xE0, 0xF0},
	{},
}

// TestReorderPredictedFingerprints checks the heart of class pruning: the
// fingerprint handed to Seen — computed as an XOR delta before the state is
// constructed — equals the tracked fingerprint of the state once it is.
func TestReorderPredictedFingerprints(t *testing.T) {
	for si, script := range enumScripts {
		log := scriptLog(script)
		for k := 0; k <= 3; k++ {
			base := scriptBase(t)
			var predicted uint64
			var predDesc string
			opts := ReorderEnumOpts{
				Seen: func(st ReorderState, fp uint64) bool {
					predicted, predDesc = fp, st.Desc
					return false
				},
			}
			n := int64(0)
			stats, err := ForEachReorderStatePruned(base, log, k, opts, nil,
				func(st ReorderState, crash *Snapshot) bool {
					n++
					if st.Desc != predDesc {
						t.Fatalf("script %d k=%d: fn got %q, Seen last saw %q", si, k, st.Desc, predDesc)
					}
					if got := crash.Fingerprint(); got != predicted {
						t.Fatalf("script %d k=%d state %s: predicted fp %016x, constructed %016x",
							si, k, st.Desc, predicted, got)
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
// sector size, predicted fingerprint vs constructed fingerprint.
func TestFaultPredictedFingerprints(t *testing.T) {
	for si, script := range enumScripts {
		log := scriptLog(script)
		for kind := FaultKind(0); int(kind) < NumFaultKinds; kind++ {
			for _, sector := range []int{512, 2048, BlockSize} {
				base := scriptBase(t)
				var predicted uint64
				var predDesc string
				opts := FaultEnumOpts{
					Seen: func(st FaultState, fp uint64) bool {
						predicted, predDesc = fp, st.Desc
						return false
					},
				}
				stats, err := ForEachFaultStatePruned(base, log, kind, sector, opts, nil,
					func(st FaultState, crash *Snapshot) bool {
						if st.Desc != predDesc {
							t.Fatalf("script %d %s/%d: fn got %q, Seen last saw %q",
								si, kind, sector, st.Desc, predDesc)
						}
						if got := crash.Fingerprint(); got != predicted {
							t.Fatalf("script %d %s/%d state %s: predicted fp %016x, constructed %016x",
								si, kind, sector, st.Desc, predicted, got)
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

// checkCommute runs the commute-pruned sweep against the unpruned one and
// verifies the two invariants the prune promises: the accounting covers the
// exact state count, and every skipped drop-set's fingerprint equals its
// (earlier-enumerated) representative's.
func checkCommute(t *testing.T, log []Record, k int, mkBase func() *MemDisk) {
	t.Helper()
	// Reference sweep: every state's fingerprint, and enumeration order.
	fpOf := map[string]uint64{}
	order := map[string]int{}
	if _, err := ForEachReorderStatePruned(mkBase(), log, k, ReorderEnumOpts{}, nil,
		func(st ReorderState, crash *Snapshot) bool {
			order[st.Desc] = len(order)
			fpOf[st.Desc] = crash.Fingerprint()
			return true
		}); err != nil {
		t.Fatal(err)
	}

	type skip struct{ desc, rep string }
	var skips []skip
	visited := map[string]int{}
	stats, err := ForEachReorderStatePruned(mkBase(), log, k, ReorderEnumOpts{
		Commute: true,
		OnCommuteSkip: func(st ReorderState, repDesc string) {
			skips = append(skips, skip{st.Desc, repDesc})
		},
	}, nil, func(st ReorderState, crash *Snapshot) bool {
		visited[st.Desc] = len(visited)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReorderStateCount(log, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.States() != want || stats.CommuteSkipped != int64(len(skips)) {
		t.Fatalf("k=%d: stats %+v, %d skips, count %d", k, stats, len(skips), want)
	}
	if stats.Visited != int64(len(visited)) {
		t.Fatalf("k=%d: visited %d states, stats say %d", k, len(visited), stats.Visited)
	}
	for _, s := range skips {
		if _, ok := fpOf[s.desc]; !ok {
			t.Fatalf("k=%d: skipped %q is not in the enumeration", k, s.desc)
		}
		if fpOf[s.desc] != fpOf[s.rep] {
			t.Fatalf("k=%d: skipped %q fp %016x != representative %q fp %016x",
				k, s.desc, fpOf[s.desc], s.rep, fpOf[s.rep])
		}
		if order[s.rep] >= order[s.desc] {
			t.Fatalf("k=%d: representative %q does not precede %q", k, s.rep, s.desc)
		}
		if _, ok := visited[s.rep]; !ok {
			t.Fatalf("k=%d: representative %q of %q was itself skipped", k, s.rep, s.desc)
		}
	}
}

func TestCommutePruneInvariants(t *testing.T) {
	for si, script := range enumScripts {
		log := scriptLog(script)
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("script%d-k%d", si, k), func(t *testing.T) {
				checkCommute(t, log, k, func() *MemDisk { return scriptBase(t) })
			})
		}
	}
}

// FuzzCommuteSkip fuzzes the commute-prune invariants over arbitrary logs:
// count == visited + skipped, and every skipped drop-set's fingerprint
// equals its representative's.
func FuzzCommuteSkip(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x01, 0x03, 0xE0, 0x01, 0x01}, byte(2))
	f.Add([]byte{0x05, 0x05, 0x05, 0x05}, byte(3))
	f.Add([]byte{0x10, 0xF0, 0x10, 0x18, 0x10}, byte(1))
	f.Fuzz(func(t *testing.T, script []byte, kSel byte) {
		if len(script) > 24 {
			script = script[:24] // keep the drop-subset space small
		}
		log := scriptLog(script)
		k := 1 + int(kSel)%3
		checkCommute(t, log, k, func() *MemDisk { return scriptBase(t) })
	})
}
