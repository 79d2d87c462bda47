package blockdev

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// nameDigest folds a state-name sequence into a short hex digest.
type nameDigest struct{ names []string }

func (d *nameDigest) add(name string) { d.names = append(d.names, name) }

func (d *nameDigest) sum() string {
	h := sha256.New()
	for _, n := range d.names {
		h.Write([]byte(n))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStateNamesPinned pins the state names both engines yield over every
// enumScripts log: reorder at k = 0, 1, 2 and each fault kind at sectors
// 512, 1024 and 4096. Names are what a broken state is reported by and
// what the goldens print, so a change to how a state renders its name —
// or to the order the engines yield states in — shows here first. The
// scratch and pruned engines must yield the same sequence.
func TestStateNamesPinned(t *testing.T) {
	want := map[string]string{
		"reorder/k0":     "2695592a5297feb9",
		"reorder/k1":     "8f0df1c85a8eecfb",
		"reorder/k2":     "ecb873682280e1cc",
		"torn/512":       "a2f9a4e302f0db31",
		"torn/1024":      "b205a23761d3f248",
		"torn/4096":      "2695592a5297feb9",
		"corrupt/512":    "d6895bed0561b598",
		"corrupt/1024":   "d6895bed0561b598",
		"corrupt/4096":   "d6895bed0561b598",
		"misdirect/512":  "840855cfef1f833c",
		"misdirect/1024": "840855cfef1f833c",
		"misdirect/4096": "840855cfef1f833c",
	}
	check := func(name string, scratch, pruned *nameDigest) {
		t.Helper()
		if fmt.Sprint(scratch.names) != fmt.Sprint(pruned.names) {
			t.Fatalf("%s: scratch names %v, pruned names %v", name, scratch.names, pruned.names)
		}
		if got := scratch.sum(); got != want[name] {
			t.Errorf("%s: name digest %s, want %s", name, got, want[name])
		}
	}
	for k := 0; k <= 2; k++ {
		var scratch, pruned nameDigest
		for _, script := range enumScripts {
			log := scriptLog(script)
			ForEachReorderState(log, k, func(st ReorderState, _ func(Device) (int64, error)) bool {
				scratch.add(st.String())
				return true
			})
			if _, err := ForEachReorderStatePruned(scriptBase(t), log, k, ReorderEnumOpts{}, nil,
				func(st ReorderState, _ *Snapshot) bool {
					pruned.add(st.String())
					return true
				}); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("reorder/k%d", k), &scratch, &pruned)
	}
	for _, kind := range allFaultKinds {
		for _, sector := range []int{512, 1024, BlockSize} {
			var scratch, pruned nameDigest
			for _, script := range enumScripts {
				log := scriptLog(script)
				if err := ForEachFaultState(log, kind, sector, func(st FaultState, _ func(Device) (int64, error)) bool {
					scratch.add(st.String())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := ForEachFaultStatePruned(scriptBase(t), log, kind, sector, FaultEnumOpts{}, nil,
					func(st FaultState, _ *Snapshot) bool {
						pruned.add(st.String())
						return true
					}); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("%s/%d", kind, sector), &scratch, &pruned)
		}
	}
}

// TestFaultSweepAllocsFlat checks that an enumerated state costs no
// allocation of its own: under a Seen that answers every state, nothing is
// built, so what a sweep allocates is per sweep and per epoch, never per
// state. The torn sweep at 512-byte sectors yields eight states per write
// where the 4096-byte sweep yields one, and the corrupt sweep yields two
// states per write where the misdirect sweep yields one and plans its
// epochs besides; neither may allocate more than the other.
func TestFaultSweepAllocsFlat(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not exact under -race")
	}
	log := scriptLog(enumScripts[1])
	base := scriptBase(t)
	opts := FaultEnumOpts{Seen: func(FaultState, uint64) bool { return true }}
	fn := func(FaultState, *Snapshot) bool {
		t.Fatal("a state Seen answered was built")
		return false
	}
	sweep := func(kind FaultKind, sector int) (allocs float64, states int64) {
		allocs = testing.AllocsPerRun(20, func() {
			stats, err := ForEachFaultStatePruned(base, log, kind, sector, opts, nil, fn)
			if err != nil {
				t.Fatal(err)
			}
			states = stats.States()
		})
		return allocs, states
	}
	torn512, n512 := sweep(FaultTorn, 512)
	torn4096, n4096 := sweep(FaultTorn, BlockSize)
	if n512-1 != 8*(n4096-1) {
		t.Fatalf("torn sweep: %d states at 512-byte sectors, %d at 4096", n512, n4096)
	}
	if torn512 > torn4096 {
		t.Errorf("torn sweep allocates %.0f objects for %d states at 512-byte sectors, %.0f for %d at 4096",
			torn512, n512, torn4096, n4096)
	}
	corrupt, nc := sweep(FaultCorrupt, SectorSize)
	misdirect, nm := sweep(FaultMisdirect, SectorSize)
	if corrupt > misdirect {
		t.Errorf("corrupt sweep allocates %.0f objects for %d states, misdirect %.0f for %d",
			corrupt, nc, misdirect, nm)
	}
}

// TestReorderSweepAllocsFlat is the reorder twin of TestFaultSweepAllocsFlat:
// under a Seen that answers every state, the k = 1 and k = 2 sweeps, which
// add a drop-set state for every subset of each epoch's writes, allocate
// no more objects than the k = 0 sweep, which yields only the prefixes. A
// drop-set is handed to Seen as the enumerator's own scratch, not a copy.
func TestReorderSweepAllocsFlat(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not exact under -race")
	}
	log := scriptLog(enumScripts[1])
	base := scriptBase(t)
	opts := ReorderEnumOpts{Seen: func(ReorderState, uint64) bool { return true }}
	fn := func(ReorderState, *Snapshot) bool {
		t.Fatal("a state Seen answered was built")
		return false
	}
	sweep := func(k int) (allocs float64, states int64) {
		allocs = testing.AllocsPerRun(20, func() {
			stats, err := ForEachReorderStatePruned(base, log, k, opts, nil, fn)
			if err != nil {
				t.Fatal(err)
			}
			states = stats.States()
		})
		return allocs, states
	}
	k0, n0 := sweep(0)
	for k := 1; k <= 2; k++ {
		allocs, n := sweep(k)
		if n <= n0 {
			t.Fatalf("k=%d sweep: %d states, k=0: %d", k, n, n0)
		}
		if allocs > k0 {
			t.Errorf("k=%d sweep allocates %.0f objects for %d states, k=0 %.0f for %d", k, allocs, n, k0, n0)
		}
	}
}
