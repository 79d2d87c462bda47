package crashmonkey

import (
	"fmt"
	"testing"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/fs/logfs"
	"b3/internal/workload"
)

// The incremental crash-state engine (rolling ReplayCursor + epoch-base
// forks + incremental fingerprints) must be observationally identical to
// the from-scratch path: byte-identical fingerprints and identical verdicts
// on every state, for every checkpoint and every reorder state. These are
// the cross-checks docs/TESTING.md describes.

// sweepBoth runs every checkpoint of every enumerated workload through an
// incremental and a scratch Monkey (separate prune caches so both modes
// exercise their own fingerprint path) and fails on any divergence.
// wantSavings asserts the incremental engine replayed strictly fewer writes;
// single-checkpoint seq-1 sweeps legitimately tie (the delta IS the prefix).
func sweepBoth(t *testing.T, bounds ace.Bounds, limit int64, reorder int, wantSavings bool) {
	t.Helper()
	fs := logfs.New(logfs.Options{}) // buggy: divergence must be visible on real findings
	inc := &Monkey{FS: fs, Prune: NewPruneCache(), Meter: &blockdev.BlockMeter{}}
	scratch := &Monkey{FS: fs, Prune: NewPruneCache(), ScratchStates: true, Meter: &blockdev.BlockMeter{}}

	var n, incReplayed, scratchReplayed int64
	_, err := ace.New(bounds).Generate(func(w *workload.Workload) bool {
		if limit > 0 && n >= limit {
			return false
		}
		n++
		p, err := inc.ProfileWorkload(w)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.ID, err)
		}
		for cp := 1; cp <= p.Checkpoints(); cp++ {
			a, err := inc.TestCheckpoint(p, cp)
			if err != nil {
				t.Fatalf("%s cp %d: incremental: %v", w.ID, cp, err)
			}
			b, err := scratch.TestCheckpoint(p, cp)
			if err != nil {
				t.Fatalf("%s cp %d: scratch: %v", w.ID, cp, err)
			}
			if a.StateHash != b.StateHash {
				t.Fatalf("%s cp %d: fingerprint %x (incremental) != %x (scratch)",
					w.ID, cp, a.StateHash, b.StateHash)
			}
			if a.Mountable != b.Mountable || a.FsckRun != b.FsckRun ||
				a.FsckRepaired != b.FsckRepaired ||
				fmt.Sprint(a.Findings) != fmt.Sprint(b.Findings) {
				t.Fatalf("%s cp %d: verdict diverged\nincremental: mountable=%t %v\nscratch:     mountable=%t %v",
					w.ID, cp, a.Mountable, a.Findings, b.Mountable, b.Findings)
			}
			incReplayed += a.ReplayedWrites
			scratchReplayed += b.ReplayedWrites
		}
		if reorder > 0 {
			ra, err := inc.ExploreReorder(p, reorder)
			if err != nil {
				t.Fatalf("%s: incremental reorder: %v", w.ID, err)
			}
			rb, err := scratch.ExploreReorder(p, reorder)
			if err != nil {
				t.Fatalf("%s: scratch reorder: %v", w.ID, err)
			}
			if ra.States != rb.States || ra.Mountable != rb.Mountable ||
				ra.Repaired != rb.Repaired || fmt.Sprint(ra.Broken) != fmt.Sprint(rb.Broken) {
				t.Fatalf("%s: reorder report diverged\nincremental: %+v\nscratch:     %+v", w.ID, ra, rb)
			}
			// Checked counts are equal too: both caches start empty and the
			// sweeps enumerate identical fingerprint sequences, so a state
			// runs recovery iff its fingerprint is novel at that point —
			// regardless of whether the repeat is caught after construction
			// (scratch: Pruned) or at enumeration time (incremental:
			// ClassSkipped).
			if ra.Checked != rb.Checked || ra.Pruned+ra.ClassSkipped != rb.Pruned {
				t.Fatalf("%s: reorder prune split diverged: %d/%d+%d vs %d/%d",
					w.ID, ra.Checked, ra.Pruned, ra.ClassSkipped, rb.Checked, rb.Pruned)
			}
			incReplayed += ra.ReplayedWrites
			scratchReplayed += rb.ReplayedWrites
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if incReplayed > scratchReplayed {
		t.Fatalf("incremental construction replayed %d writes, scratch only %d",
			incReplayed, scratchReplayed)
	}
	if wantSavings && incReplayed == scratchReplayed {
		t.Fatalf("incremental construction replayed %d writes, scratch %d — no savings",
			incReplayed, scratchReplayed)
	}
	if got := inc.Meter.BlocksReplayed.Load(); got != incReplayed {
		t.Fatalf("incremental meter %d != summed Result/Report accounting %d", got, incReplayed)
	}
	if got := scratch.Meter.BlocksReplayed.Load(); got != scratchReplayed {
		t.Fatalf("scratch meter %d != summed Result/Report accounting %d", got, scratchReplayed)
	}
	// One disk-tier lookup per state in both engines, on the same
	// fingerprints in the same order: the cache counters agree exactly.
	ic, sc := inc.Prune.Stats(), scratch.Prune.Stats()
	if ic.DiskHits != sc.DiskHits || ic.TreeHits != sc.TreeHits || ic.Misses != sc.Misses {
		t.Fatalf("prune counters diverged: disk/tree/miss %d/%d/%d (incremental) vs %d/%d/%d (scratch)",
			ic.DiskHits, ic.TreeHits, ic.Misses, sc.DiskHits, sc.TreeHits, sc.Misses)
	}
	t.Logf("%d workloads: %d writes replayed incrementally vs %d from scratch (%.1fx)",
		n, incReplayed, scratchReplayed, float64(scratchReplayed)/float64(incReplayed))
}

func TestIncrementalReplayMatchesScratch(t *testing.T) {
	t.Run("seq-1", func(t *testing.T) {
		limit := int64(0)
		if testing.Short() {
			limit = 120
		}
		sweepBoth(t, ace.Default(1), limit, 0, false)
	})
	t.Run("seq-2", func(t *testing.T) {
		bounds := ace.Default(2)
		bounds.Ops = []workload.OpKind{workload.OpCreat, workload.OpLink,
			workload.OpRename, workload.OpFalloc}
		limit := int64(400)
		if testing.Short() {
			limit = 60
		}
		sweepBoth(t, bounds, limit, 0, true)
	})
	t.Run("seq-2-reorder-1", func(t *testing.T) {
		bounds := ace.Default(2)
		bounds.Ops = []workload.OpKind{workload.OpCreat, workload.OpRename}
		limit := int64(120)
		if testing.Short() {
			limit = 30
		}
		sweepBoth(t, bounds, limit, 1, true)
	})
}

// TestCursorForkIsolation proves recovery writes never leak out of a
// state's fork: not into the profile's rolling replay base (later
// checkpoints would be contaminated), not into sibling states, and not
// into the pristine image.
func TestCursorForkIsolation(t *testing.T) {
	fs := logfs.New(logfs.Options{})
	mk := &Monkey{FS: fs, Prune: NewPruneCache()}
	w := mustParse(t, "isolation", `
mkdir /A
creat /A/foo
write /A/foo 0 8192
fsync /A/foo
rename /A/foo /A/bar
sync
`)
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	// Test every checkpoint twice, interleaved: the second pass must see
	// fingerprints and verdicts identical to the first even though earlier
	// TestCheckpoint calls mounted (= ran recovery on) forks of the same
	// rolling snapshot, and the second pass forces cursor rewinds.
	type obs struct {
		hash      uint64
		mountable bool
		findings  string
	}
	var first []obs
	for pass := 0; pass < 2; pass++ {
		for cp := 1; cp <= p.Checkpoints(); cp++ {
			res, err := mk.TestCheckpoint(p, cp)
			if err != nil {
				t.Fatalf("pass %d cp %d: %v", pass, cp, err)
			}
			o := obs{res.StateHash, res.Mountable, fmt.Sprint(res.Findings)}
			if pass == 0 {
				first = append(first, o)
				continue
			}
			if o != first[cp-1] {
				t.Fatalf("cp %d: second pass diverged (recovery writes leaked into the rolling base)\nfirst:  %+v\nsecond: %+v",
					cp, first[cp-1], o)
			}
		}
	}
	// The same holds across sibling monkeys sharing the profile: a scratch
	// construction must agree with the cursor after all that mounting.
	scratch := &Monkey{FS: fs, Prune: NewPruneCache(), ScratchStates: true}
	for cp := 1; cp <= p.Checkpoints(); cp++ {
		res, err := scratch.TestCheckpoint(p, cp)
		if err != nil {
			t.Fatal(err)
		}
		if res.StateHash != first[cp-1].hash {
			t.Fatalf("cp %d: scratch fingerprint %x != cursor %x — rolling base contaminated",
				cp, res.StateHash, first[cp-1].hash)
		}
	}
}
