package crashmonkey

import (
	"bytes"
	"testing"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/fsmake"
	"b3/internal/workload"
)

// TestBaseStaysPristine is the gate behind formatting one base image per
// Monkey: every profile, cursor, fork and sweep overlays the base and none
// writes it. After every persistence point, the k=1 reorder sweep and the
// torn/corrupt/misdirect fault sweeps of seq-1 have run over it — in the
// incremental and the scratch engine, on every backend — the base must
// still be byte-equal to a freshly formatted device. (-short tests every
// seventh workload.)
func TestBaseStaysPristine(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for _, name := range fsmake.Names() {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		modes := []struct {
			name string
			mk   *Monkey
		}{
			{"incremental", &Monkey{FS: fs, Prune: NewPruneCache()}},
			{"scratch", &Monkey{FS: fs, ScratchStates: true}},
		}
		for _, mode := range modes {
			t.Run(name+"/"+mode.name, func(t *testing.T) {
				t.Parallel()
				mk := mode.mk
				var n int64
				_, err := ace.New(ace.Default(1)).Generate(func(w *workload.Workload) bool {
					if n++; n%stride != 0 {
						return true
					}
					p, err := mk.ProfileWorkload(w)
					if err != nil {
						t.Fatalf("%s: profile: %v", w.ID, err)
					}
					defer p.Release()
					for cp := 1; cp <= p.Checkpoints(); cp++ {
						if _, err := mk.TestCheckpoint(p, cp); err != nil {
							t.Fatalf("%s cp %d: %v", w.ID, cp, err)
						}
					}
					if _, err := mk.ExploreReorder(p, 1); err != nil {
						t.Fatalf("%s: reorder: %v", w.ID, err)
					}
					if _, err := mk.ExploreFaults(p, allFaults); err != nil {
						t.Fatalf("%s: faults: %v", w.ID, err)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				fresh := blockdev.NewMemDisk(mk.base.NumBlocks())
				if err := fs.Mkfs(fresh); err != nil {
					t.Fatal(err)
				}
				for b := int64(0); b < fresh.NumBlocks(); b++ {
					got, err := mk.base.ReadBlockView(b)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.ReadBlockView(b)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("base block %d differs from a fresh mkfs after %d workloads", b, n)
					}
				}
			})
		}
	}
}
