package crashmonkey

import (
	"testing"
	"unsafe"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/fsmake"
	"b3/internal/kvoracle"
	"b3/internal/workload"
)

// axisTally sums one axis's sweep accounting over many workloads.
type axisTally struct {
	States, Checked, Pruned, ClassSkipped int
	Mountable, Repaired, Broken           int
	ReplayedWrites                        int64
}

func (a *axisTally) reorder(r *ReorderReport) {
	a.States += r.States
	a.Checked += r.Checked
	a.Pruned += r.Pruned
	a.ClassSkipped += r.ClassSkipped
	a.Mountable += r.Mountable
	a.Repaired += r.Repaired
	a.Broken += len(r.Broken)
	a.ReplayedWrites += r.ReplayedWrites
}

func (a *axisTally) fault(r *FaultKindReport) {
	a.States += r.States
	a.Checked += r.Checked
	a.Pruned += r.Pruned
	a.ClassSkipped += r.ClassSkipped
	a.Mountable += r.Mountable
	a.Repaired += r.Repaired
	a.Broken += len(r.Broken)
	a.ReplayedWrites += r.ReplayedWrites
}

// checkpointTally sums the persistence-point results of many workloads.
type checkpointTally struct {
	States, Pruned, Buggy, Mountable int
	ReplayedWrites                   int64
}

func (c *checkpointTally) add(r *Result) {
	c.States++
	if r.Pruned {
		c.Pruned++
	}
	if r.Buggy() {
		c.Buggy++
	}
	if r.Mountable {
		c.Mountable++
	}
	c.ReplayedWrites += r.ReplayedWrites
}

// TestSweepAccountingPinned pins the judging pipeline's accounting exactly:
// every seq-1 workload on logfs (new-bugs configuration) through every
// persistence point, the reorder k=1 sweep and the torn/corrupt/misdirect
// fault sweeps, and every kv-seq1 workload on fscqsim through every
// persistence point, the reorder k=1 sweep and the torn/corrupt sweeps, and
// every kv-seq1 workload on diskfmt through the misdirect sweep — one Monkey
// and one fresh PruneCache per backend, judged from a single goroutine, so
// every counter (cache tiers included) is deterministic. A refactor of the
// sweep core that changes no state, fingerprint or verdict leaves all of
// these numbers unchanged.
func TestSweepAccountingPinned(t *testing.T) {
	if got := unsafe.Sizeof(cachedVerdict{}); got != 32 {
		t.Errorf("cachedVerdict is %d bytes, want 32 (one small size class per cached verdict)", got)
	}

	t.Run("logfs", func(t *testing.T) {
		fs, err := fsmake.NewBugsOnly("logfs")
		if err != nil {
			t.Fatal(err)
		}
		mk := &Monkey{FS: fs, Prune: NewPruneCache()}
		var cps checkpointTally
		var reorder, faults axisTally
		var classes kvoracle.Counts
		if _, err := ace.New(ace.Default(1)).Generate(func(w *workload.Workload) bool {
			p, err := mk.ProfileWorkload(w)
			if err != nil {
				t.Fatalf("%s: profile: %v", w.ID, err)
			}
			defer p.Release()
			for cp := 1; cp <= p.Checkpoints(); cp++ {
				r, err := mk.TestCheckpoint(p, cp)
				if err != nil {
					t.Fatalf("%s cp %d: %v", w.ID, cp, err)
				}
				cps.add(r)
				classes.Add(r.Class)
			}
			rr, err := mk.ExploreReorder(p, 1)
			if err != nil {
				t.Fatalf("%s: reorder: %v", w.ID, err)
			}
			reorder.reorder(rr)
			classes.Merge(rr.Classes)
			fr, err := mk.ExploreFaults(p, allFaults)
			if err != nil {
				t.Fatalf("%s: faults: %v", w.ID, err)
			}
			for i := range fr.Kinds {
				faults.fault(&fr.Kinds[i])
				classes.Merge(fr.Kinds[i].Classes)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		pin(t, "checkpoints", cps, checkpointTally{States: 916, Pruned: 440, Buggy: 215, Mountable: 916, ReplayedWrites: 3347})
		pin(t, "reorder", reorder, axisTally{States: 7514, Checked: 2540, ClassSkipped: 4974,
			Mountable: 7514, ReplayedWrites: 12233})
		pin(t, "faults", faults, axisTally{States: 39277, Checked: 13303, ClassSkipped: 25974,
			Mountable: 39277, ReplayedWrites: 28330})
		// File-family verdicts have no application class.
		pin(t, "classes", classes, kvoracle.Counts{})
		pinPrune(t, mk.Prune, PruneStats{DiskHits: 31313, TreeHits: 75, Misses: 16319})
	})

	t.Run("fscqsim-kv", func(t *testing.T) {
		fs, err := fsmake.NewBugsOnly("fscqsim")
		if err != nil {
			t.Fatal(err)
		}
		mk := &Monkey{FS: fs, Prune: NewPruneCache()}
		model := blockdev.FaultModel{Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt}}
		var cps checkpointTally
		var reorder, faults axisTally
		var cpClasses, reorderClasses, faultClasses kvoracle.Counts
		for _, w := range kvWorkloads(t, "kv-seq1", nil) {
			kp, err := mk.ProfileKV(w)
			if err != nil {
				t.Fatalf("%s: profile: %v", w.ID, err)
			}
			for cp := 1; cp <= kp.Checkpoints(); cp++ {
				r, err := mk.TestCheckpoint(kp, cp)
				if err != nil {
					t.Fatalf("%s cp %d: %v", w.ID, cp, err)
				}
				cps.add(r)
				cpClasses.Add(r.Class)
			}
			rr, err := mk.ExploreReorder(kp, 1)
			if err != nil {
				t.Fatalf("%s: reorder: %v", w.ID, err)
			}
			reorder.reorder(rr)
			reorderClasses.Merge(rr.Classes)
			fr, err := mk.ExploreFaults(kp, model)
			if err != nil {
				t.Fatalf("%s: faults: %v", w.ID, err)
			}
			for i := range fr.Kinds {
				faults.fault(&fr.Kinds[i])
				faultClasses.Merge(fr.Kinds[i].Classes)
			}
			kp.Release()
		}
		pin(t, "checkpoints", cps, checkpointTally{States: 18, Pruned: 6, Buggy: 8, Mountable: 18, ReplayedWrites: 192})
		pin(t, "checkpoint classes", cpClasses, kvoracle.Counts{Legal: 10, LostAck: 8})
		pin(t, "reorder", reorder, axisTally{States: 402, Checked: 108, ClassSkipped: 294,
			Mountable: 402, ReplayedWrites: 384})
		pin(t, "reorder classes", reorderClasses, kvoracle.Counts{Legal: 402})
		pin(t, "faults", faults, axisTally{States: 1956, Checked: 318, ClassSkipped: 1638,
			Mountable: 1956, ReplayedWrites: 684})
		pin(t, "fault classes", faultClasses, kvoracle.Counts{Legal: 1956})
		pinPrune(t, mk.Prune, PruneStats{DiskHits: 1938, Misses: 438})
	})

	// Misdirected writes break the reference design (the documented genuine
	// diskfmt find), so this sweep has broken KV states: they render no
	// application class, and every state that recovered renders one.
	t.Run("diskfmt-kv-misdirect", func(t *testing.T) {
		fs, err := fsmake.NewBugsOnly("diskfmt")
		if err != nil {
			t.Fatal(err)
		}
		mk := &Monkey{FS: fs, Prune: NewPruneCache()}
		model := blockdev.FaultModel{Kinds: []blockdev.FaultKind{blockdev.FaultMisdirect}}
		var faults axisTally
		var classes kvoracle.Counts
		for _, w := range kvWorkloads(t, "kv-seq1", nil) {
			kp, err := mk.ProfileKV(w)
			if err != nil {
				t.Fatalf("%s: profile: %v", w.ID, err)
			}
			fr, err := mk.ExploreFaults(kp, model)
			if err != nil {
				t.Fatalf("%s: faults: %v", w.ID, err)
			}
			for i := range fr.Kinds {
				faults.fault(&fr.Kinds[i])
				classes.Merge(fr.Kinds[i].Classes)
			}
			kp.Release()
		}
		pin(t, "faults", faults, axisTally{States: 402, Checked: 216, ClassSkipped: 186,
			Mountable: 306, Broken: 96, ReplayedWrites: 588})
		pin(t, "fault classes", classes, kvoracle.Counts{Legal: 306})
		pin(t, "classified", classes.Total(), int64(faults.Mountable+faults.Repaired))
		pinPrune(t, mk.Prune, PruneStats{DiskHits: 186, Misses: 216})
	})
}

func pin[T comparable](t *testing.T, what string, got, want T) {
	t.Helper()
	if got != want {
		t.Errorf("%s: got %+v, want %+v", what, got, want)
	}
}

// pinPrune compares the cache's hit and miss counters; the occupancy and
// eviction fields follow from them.
func pinPrune(t *testing.T, c *PruneCache, want PruneStats) {
	t.Helper()
	s := c.Stats()
	got := PruneStats{DiskHits: s.DiskHits, TreeHits: s.TreeHits, Misses: s.Misses}
	pin(t, "prune cache", got, want)
}
