package campaign

import (
	"time"

	"b3/internal/blockdev"
	"b3/internal/corpus"
	"b3/internal/crashmonkey"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/workload"
)

// fsJob is one workload bound for one matrix row.
type fsJob struct {
	run *fsRun
	wl  workloadFamily
	seq int64
}

// workloadFamily is one generated workload as the campaign drives it: the
// one value that differs between the ACE file-system family, judged by the
// file-level oracle, and the bounded KV application family, judged by the
// expected-state oracle. profile comes first; check, reorder and faults run
// over the profile it recorded.
type workloadFamily interface {
	id() string
	// skeletonAt is the report-grouping skeleton of a finding at persistence
	// point cp; cp 0 names the whole workload.
	skeletonAt(cp int) string
	text() string
	profile(mk *crashmonkey.Monkey) (*crashmonkey.Profile, error)
	check(mk *crashmonkey.Monkey, cp int) (*crashmonkey.Result, error)
	reorder(mk *crashmonkey.Monkey, k int) (*crashmonkey.ReorderReport, error)
	faults(mk *crashmonkey.Monkey, model blockdev.FaultModel) ([]crashmonkey.FaultKindReport, error)
	// classes is the application-oracle tally over everything checked so
	// far (always zero for the file family).
	classes() kvoracle.Counts
}

// fileWorkload is an ACE workload; a finding at an early persistence point
// groups under the skeleton of the equivalent shorter workload.
type fileWorkload struct {
	w *workload.Workload
	p *crashmonkey.Profile
}

func (f *fileWorkload) id() string               { return f.w.ID }
func (f *fileWorkload) skeletonAt(cp int) string { return f.w.SkeletonAt(cp) }
func (f *fileWorkload) text() string             { return f.w.String() }
func (f *fileWorkload) classes() kvoracle.Counts { return kvoracle.Counts{} }

func (f *fileWorkload) profile(mk *crashmonkey.Monkey) (p *crashmonkey.Profile, err error) {
	f.p, err = mk.ProfileWorkload(f.w)
	return f.p, err
}

func (f *fileWorkload) check(mk *crashmonkey.Monkey, cp int) (*crashmonkey.Result, error) {
	return mk.TestCheckpoint(f.p, cp)
}

func (f *fileWorkload) reorder(mk *crashmonkey.Monkey, k int) (*crashmonkey.ReorderReport, error) {
	return mk.ExploreReorder(f.p, k)
}

func (f *fileWorkload) faults(mk *crashmonkey.Monkey, model blockdev.FaultModel) ([]crashmonkey.FaultKindReport, error) {
	fr, err := mk.ExploreFaults(f.p, model)
	if err != nil {
		return nil, err
	}
	return fr.Kinds, nil
}

// kvWorkload is a kvace workload: it drives the KV store over the mounted
// backend, and every crash state is recovered by the application. Oracle
// class verdicts accumulate in counts; they are a deterministic function of
// the workload (verdicts never depend on prune-cache state), so they are
// recorded to the corpus and resume/merge fold the identical totals. KV
// findings always group under the full skeleton.
type kvWorkload struct {
	w      *kvace.Workload
	kp     *crashmonkey.KVProfile
	counts kvoracle.Counts
}

func (k *kvWorkload) id() string               { return k.w.ID }
func (k *kvWorkload) skeletonAt(int) string    { return k.w.Skeleton() }
func (k *kvWorkload) text() string             { return k.w.String() }
func (k *kvWorkload) classes() kvoracle.Counts { return k.counts }

func (k *kvWorkload) profile(mk *crashmonkey.Monkey) (*crashmonkey.Profile, error) {
	kp, err := mk.ProfileKV(k.w)
	if err != nil {
		return nil, err
	}
	k.kp = kp
	return kp.Profile, nil
}

func (k *kvWorkload) check(mk *crashmonkey.Monkey, cp int) (*crashmonkey.Result, error) {
	res, err := mk.TestKVCheckpoint(k.kp, cp)
	if err != nil {
		return nil, err
	}
	// FS-broken states render no application verdict (the lower layer
	// already broke its contract; that surfaces as an Unmountable finding,
	// never as a KV class).
	if res.Mountable || res.FsckRepaired {
		k.counts.Add(res.Class)
	}
	return &res.Result, nil
}

func (k *kvWorkload) reorder(mk *crashmonkey.Monkey, bound int) (*crashmonkey.ReorderReport, error) {
	rr, err := mk.ExploreKVReorder(k.kp, bound)
	if err != nil {
		return nil, err
	}
	k.counts.Merge(rr.Classes)
	return &rr.ReorderReport, nil
}

func (k *kvWorkload) faults(mk *crashmonkey.Monkey, model blockdev.FaultModel) ([]crashmonkey.FaultKindReport, error) {
	fr, err := mk.ExploreKVFaults(k.kp, model)
	if err != nil {
		return nil, err
	}
	kinds := make([]crashmonkey.FaultKindReport, len(fr.Kinds))
	for i, kr := range fr.Kinds {
		kinds[i] = kr.FaultKindReport
		k.counts.Merge(kr.Classes)
	}
	return kinds, nil
}

// runWorkload profiles one workload, crash-tests its persistence points,
// and (when configured) sweeps its bounded-reordering and fault-injection
// crash states, building the workload's corpus record. The record is all
// the campaign learns of the outcome: record files it and folds it into
// the row's statistics.
func (r *fsRun) runWorkload(mk *crashmonkey.Monkey, wl workloadFamily, seq int64) {
	rec := &corpus.WorkloadRecord{Seq: seq, ID: wl.id(), Verdict: corpus.VerdictClean}
	p, err := wl.profile(mk)
	if err != nil {
		rec.Verdict = corpus.VerdictError
		rec.Errored = true
		r.record(rec, nil, 0, 0)
		return
	}
	// Hand the profile's pooled device memory (base image, overlays, the
	// rolling cursor) back once every sweep over it is done.
	defer p.Release()
	last := p.Checkpoints()
	if last == 0 {
		r.record(rec, nil, 0, 0)
		return
	}

	first := 1
	if r.cfg.FinalOnly {
		first = last
	}
	var replayDur, checkDur time.Duration
	for cp := first; cp <= last; cp++ {
		res, err := wl.check(mk, cp)
		if err != nil {
			// Earlier checkpoints may already have found bugs; keep those
			// reports and verdicts, just stop testing this workload.
			rec.Errored = true
			break
		}
		rec.States++
		if res.Pruned {
			rec.Pruned++
			if res.PrunedBy != "disk" {
				rec.PrunedTree++
			}
		} else {
			rec.Checked++
		}
		rec.Replayed += res.ReplayedWrites
		replayDur += res.ReplayDur
		checkDur += res.CheckDur
		if res.Buggy() {
			rec.Verdict = corpus.VerdictBuggy
			cr := corpus.ReportRecord{
				Checkpoint: cp,
				Primary:    uint8(res.Primary().Consequence),
				Skeleton:   wl.skeletonAt(cp),
			}
			for _, f := range res.Findings {
				cr.Findings = append(cr.Findings, corpus.Finding{
					Consequence: uint8(f.Consequence),
					Path:        f.Path,
					Detail:      f.Detail,
				})
			}
			rec.Reports = append(rec.Reports, cr)
		}
	}
	// The bounded-reordering sweep rides the same profile. It is skipped for
	// workloads that already errored so the recorded RStates/RBroken totals
	// are a deterministic function of the workload (what resume compares
	// against); the RChecked/RPruned/RClassSkip split depends on shared
	// prune-cache state and worker interleaving, so only its sum is stable
	// (RCommuteSkip is deterministic: the enumerator proves those states
	// identical without consulting the cache).
	if r.cfg.Reorder > 0 && !rec.Errored {
		rr, err := wl.reorder(mk, r.cfg.Reorder)
		if err != nil {
			rec.Errored = true
		} else {
			rec.RStates = rr.States
			rec.RChecked = rr.Checked
			rec.RPruned = rr.Pruned
			rec.RClassSkip = rr.ClassSkipped
			rec.RCommuteSkip = rr.CommuteSkipped
			rec.RBroken = len(rr.Broken)
			rec.Replayed += rr.ReplayedWrites
		}
	}
	// The fault-injection sweeps ride the same profile, gated like the
	// reorder sweep so the recorded per-kind totals stay a deterministic
	// function of the workload; only the Checked/Pruned/ClassSkip split
	// depends on shared prune-cache state.
	if r.cfg.Faults.Enabled() && !rec.Errored {
		kinds, err := wl.faults(mk, r.cfg.Faults)
		if err != nil {
			rec.Errored = true
		} else {
			for _, kr := range kinds {
				rec.Faults = append(rec.Faults, corpus.FaultKindCounts{
					Kind:      kr.Kind.String(),
					States:    kr.States,
					Checked:   kr.Checked,
					Pruned:    kr.Pruned,
					ClassSkip: kr.ClassSkipped,
					Broken:    len(kr.Broken),
				})
				rec.Replayed += kr.ReplayedWrites
			}
		}
	}
	if classes := wl.classes(); classes.Total() > 0 {
		kv := corpus.KVCounts(classes)
		rec.KV = &kv
	}
	if rec.Verdict == corpus.VerdictBuggy {
		rec.Skeleton = wl.skeletonAt(0)
		rec.Workload = wl.text()
	} else if rec.Errored {
		rec.Verdict = corpus.VerdictError
	}
	r.record(rec, p, replayDur, checkDur)
}
