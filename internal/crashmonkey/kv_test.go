package crashmonkey

import (
	"reflect"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/fs/diskfmt"
	"b3/internal/fsmake"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
)

// kvWorkloads enumerates a KV profile's workload list (optionally a residue
// subset to bound test time; every nth workload with full coverage of the
// persistence-kind cross product is preserved by the enumeration order).
func kvWorkloads(t *testing.T, profile string, keep func(seq int64) bool) []*kvace.Workload {
	t.Helper()
	b, err := kvace.Profile(profile)
	if err != nil {
		t.Fatal(err)
	}
	var out []*kvace.Workload
	if _, err := kvace.New(b).GenerateSeq(func(seq int64, w *kvace.Workload) bool {
		if keep == nil || keep(seq) {
			out = append(out, w)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestKVProfileAndFinalCheckpoint(t *testing.T) {
	mk := &Monkey{FS: diskfmt.NewFS(diskfmt.Options{})}
	w := &kvace.Workload{ID: "kv-adhoc", Ops: []kvace.Op{
		{Kind: kvace.OpPut, Key: "k0", Value: "v0.0"},
		{Kind: kvace.OpSync},
		{Kind: kvace.OpPut, Key: "k1", Value: "v1.1"},
		{Kind: kvace.OpFlush},
	}}
	res, err := mk.RunKV(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mountable {
		t.Fatal("final crash state did not mount on the reference backend")
	}
	if res.Class != kvoracle.ClassLegal || res.Buggy() {
		t.Fatalf("reference backend misjudged: class %v findings %v", res.Class, res.Findings)
	}
	if res.Checkpoint != 2 {
		t.Fatalf("final checkpoint %d, want 2", res.Checkpoint)
	}
}

func TestKVReopenRoundTrip(t *testing.T) {
	// Reopen closes, checkpoints, and recovers in-process; the rest of the
	// workload keeps appending through the reopened handle.
	mk := &Monkey{FS: diskfmt.NewFS(diskfmt.Options{})}
	w := &kvace.Workload{ID: "kv-reopen", Ops: []kvace.Op{
		{Kind: kvace.OpPut, Key: "k0", Value: "v0.0"},
		{Kind: kvace.OpReopen},
		{Kind: kvace.OpDelete, Key: "k0"},
		{Kind: kvace.OpPut, Key: "k1", Value: "v1.1"},
		{Kind: kvace.OpSync},
	}}
	res, err := mk.RunKV(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != kvoracle.ClassLegal || len(res.Findings) != 0 {
		t.Fatalf("reopen workload misjudged: class %v findings %v", res.Class, res.Findings)
	}
}

// TestKVOracleReferenceBackend is the application-level false-positive gate:
// on the bug-free reference design (whole-image dual-generation commit,
// provably torn/corrupt-tolerant), a full reorder k=1 sweep plus torn and
// corrupt fault sweeps over the bounded KV space must classify every
// recoverable crash state legal — zero lost acknowledged writes, zero
// resurrected deletes, zero unreplayable stores. Any violation is a harness
// bug: in the store's commit protocol, the interval mapping, or the oracle.
// (Misdirect is excluded, mirroring the file-level gate: it is the
// documented genuine diskfmt find.)
func TestKVOracleReferenceBackend(t *testing.T) {
	mk := &Monkey{FS: diskfmt.NewFS(diskfmt.Options{})}
	mk.Prune = NewPruneCache()
	model := blockdev.FaultModel{Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt}}

	workloads := kvWorkloads(t, "kv-seq1", nil)
	if !testing.Short() {
		// A residue slice of the seq-2 space keeps the gate broad without
		// sweeping all 432 workloads on every run.
		workloads = append(workloads, kvWorkloads(t, "kv-seq2", func(seq int64) bool { return seq%8 == 1 })...)
	}
	if len(workloads) == 0 {
		t.Fatal("no KV workloads enumerated")
	}

	for _, w := range workloads {
		kp, err := mk.ProfileKV(w)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.ID, err)
		}

		res, err := mk.TestKVCheckpoint(kp, kp.Checkpoints())
		if err != nil {
			t.Fatalf("%s: final checkpoint: %v", w.ID, err)
		}
		if res.Class != kvoracle.ClassLegal {
			t.Fatalf("%s: final checkpoint classified %v: %v", w.ID, res.Class, res.Findings)
		}

		rr, err := mk.ExploreKVReorder(kp, 1)
		if err != nil {
			t.Fatalf("%s: reorder sweep: %v", w.ID, err)
		}
		if len(rr.Broken) > 0 {
			t.Fatalf("%s: reorder sweep broke the reference FS: %v", w.ID, rr.Broken)
		}
		if rr.Classes.Total() == 0 {
			t.Fatalf("%s: reorder sweep classified no states — a vacuous gate", w.ID)
		}
		if v := rr.Classes.Violations(); v != 0 {
			t.Fatalf("%s: reorder sweep found %d KV violations on the reference backend: %+v (examples %v)",
				w.ID, v, rr.Classes, rr.Examples)
		}

		fr, err := mk.ExploreKVFaults(kp, model)
		if err != nil {
			t.Fatalf("%s: fault sweep: %v", w.ID, err)
		}
		for _, kr := range fr.Kinds {
			if kr.States == 0 {
				t.Fatalf("%s: %s sweep explored no states", w.ID, kr.Kind)
			}
			if len(kr.Broken) > 0 {
				t.Fatalf("%s: %s sweep broke the reference FS: %v", w.ID, kr.Kind, kr.Broken)
			}
			if v := kr.Classes.Violations(); v != 0 {
				t.Fatalf("%s: %s sweep found %d KV violations on the reference backend: %+v (examples %v)",
					w.ID, kr.Kind, v, kr.Classes, kr.Examples)
			}
		}
		kp.Release()
	}
}

// TestKVFscqsimLosesAcknowledgedWrite is the true-positive gate: the seeded
// fdatasync bug (Table 5 #11: the logged-writes optimization pins the stale
// durable size) silently truncates the store's WAL at the application's
// cheap durability point, so an acknowledged-and-synced put must recover
// lost — a bug class no file-level check on this harness reports for KV
// files, because only the application knows those bytes were promised.
func TestKVFscqsimLosesAcknowledgedWrite(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("fscqsim")
	if err != nil {
		t.Fatal(err)
	}
	mk := &Monkey{FS: fs}
	w := &kvace.Workload{ID: "kv-n11", Ops: []kvace.Op{
		{Kind: kvace.OpPut, Key: "k0", Value: "v0.0"},
		{Kind: kvace.OpSync},
	}}
	res, err := mk.RunKV(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != kvoracle.ClassLostAck {
		t.Fatalf("buggy fscqsim classified %v (findings %v), want lost-acknowledged-write",
			res.Class, res.Findings)
	}
	found := false
	for _, f := range res.Findings {
		if f.Consequence == bugs.KVLostAckWrite {
			found = true
		}
	}
	if !found {
		t.Fatalf("no KVLostAckWrite finding: %v", res.Findings)
	}

	// The fixed configuration keeps the promise.
	fixed, err := fsmake.Fixed("fscqsim")
	if err != nil {
		t.Fatal(err)
	}
	res, err = (&Monkey{FS: fixed}).RunKV(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != kvoracle.ClassLegal {
		t.Fatalf("fixed fscqsim classified %v: %v", res.Class, res.Findings)
	}
}

// TestKVAllBackendsComplete drives one representative workload through
// profiling, the final checkpoint, and both sweep axes on every backend:
// the campaign path must complete everywhere, whatever the verdicts.
func TestKVAllBackendsComplete(t *testing.T) {
	w := &kvace.Workload{ID: "kv-smoke", Ops: []kvace.Op{
		{Kind: kvace.OpPut, Key: "k0", Value: "v0.0"},
		{Kind: kvace.OpSync},
		{Kind: kvace.OpDelete, Key: "k0"},
		{Kind: kvace.OpFlush},
	}}
	for _, name := range fsmake.Names() {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			t.Fatal(err)
		}
		mk := &Monkey{FS: fs}
		mk.Prune = NewPruneCache()
		kp, err := mk.ProfileKV(w)
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		if _, err := mk.TestKVCheckpoint(kp, kp.Checkpoints()); err != nil {
			t.Fatalf("%s: checkpoint: %v", name, err)
		}
		if _, err := mk.ExploreKVReorder(kp, 1); err != nil {
			t.Fatalf("%s: reorder: %v", name, err)
		}
		if _, err := mk.ExploreKVFaults(kp, blockdev.FaultModel{
			Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt},
		}); err != nil {
			t.Fatalf("%s: faults: %v", name, err)
		}
		kp.Release()
	}
}

// TestKVPruneCacheConsistency reruns a workload with a shared cache: the
// second pass must reuse verdicts without changing them — at the final
// checkpoint, and across both sweep axes, where a warm cache must answer at
// enumeration time (the per-epoch expectation is part of the class key) with
// exact accounting and reports identical to the cold pass and to the
// from-scratch reference engine.
func TestKVPruneCacheConsistency(t *testing.T) {
	fs, err := fsmake.NewBugsOnly("logfs")
	if err != nil {
		t.Fatal(err)
	}
	mk := &Monkey{FS: fs}
	mk.Prune = NewPruneCache()
	w := &kvace.Workload{ID: "kv-prune", Ops: []kvace.Op{
		{Kind: kvace.OpPut, Key: "k0", Value: "v0.0"},
		{Kind: kvace.OpSync},
	}}
	first, err := mk.RunKV(w)
	if err != nil {
		t.Fatal(err)
	}
	second, err := mk.RunKV(w)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Pruned {
		t.Fatal("identical rerun was not pruned")
	}
	if first.Class != second.Class || len(first.Findings) != len(second.Findings) {
		t.Fatalf("pruned verdict drifted: %v vs %v", first, second)
	}
	if mk.Prune.Stats().Skipped() == 0 {
		t.Fatal("cache reports no skips")
	}

	// A longer workload, so the sweeps cross several persistence intervals.
	w = &kvace.Workload{ID: "kv-prune-sweep", Ops: []kvace.Op{
		{Kind: kvace.OpPut, Key: "k0", Value: "v0.0"},
		{Kind: kvace.OpSync},
		{Kind: kvace.OpDelete, Key: "k0"},
		{Kind: kvace.OpPut, Key: "k1", Value: "v1.1"},
		{Kind: kvace.OpFlush},
	}}
	model := blockdev.FaultModel{Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt}}
	type pass struct {
		rr *KVReorderReport
		fr *KVFaultReport
	}
	sweep := func(mk *Monkey) pass {
		t.Helper()
		kp, err := mk.ProfileKV(w)
		if err != nil {
			t.Fatal(err)
		}
		defer kp.Release()
		rr, err := mk.ExploreKVReorder(kp, 1)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := mk.ExploreKVFaults(kp, model)
		if err != nil {
			t.Fatal(err)
		}
		return pass{rr, fr}
	}
	same := func(what string, a, b pass) {
		t.Helper()
		if a.rr.States != b.rr.States || a.rr.Classes != b.rr.Classes ||
			!reflect.DeepEqual(a.rr.Broken, b.rr.Broken) {
			t.Fatalf("%s: reorder report drifted: %+v vs %+v", what, a.rr, b.rr)
		}
		for i, ka := range a.fr.Kinds {
			kb := b.fr.Kinds[i]
			if ka.States != kb.States || ka.Classes != kb.Classes ||
				!reflect.DeepEqual(ka.Broken, kb.Broken) {
				t.Fatalf("%s: %s report drifted: %+v vs %+v", what, ka.Kind, ka, kb)
			}
		}
	}
	cold := sweep(mk)
	warm := sweep(mk)
	if warm.rr.ClassSkipped == 0 {
		t.Fatalf("warm reorder sweep skipped nothing at enumeration time: %+v", warm.rr.ReorderReport)
	}
	if got := warm.rr.Checked + warm.rr.Pruned + warm.rr.ClassSkipped + warm.rr.CommuteSkipped; got != warm.rr.States {
		t.Fatalf("warm reorder accounting: %d accounted of %d states", got, warm.rr.States)
	}
	for _, kr := range warm.fr.Kinds {
		if kr.ClassSkipped == 0 {
			t.Fatalf("warm %s sweep skipped nothing at enumeration time: %+v", kr.Kind, kr.FaultKindReport)
		}
		if got := kr.Checked + kr.Pruned + kr.ClassSkipped; got != kr.States {
			t.Fatalf("warm %s accounting: %d accounted of %d states", kr.Kind, got, kr.States)
		}
	}
	same("warm vs cold", warm, cold)
	same("warm vs scratch", warm, sweep(&Monkey{FS: fs, ScratchStates: true}))
}
