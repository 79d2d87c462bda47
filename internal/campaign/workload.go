package campaign

import (
	"sync"
	"time"

	"b3/internal/corpus"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
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
// expected-state oracle. profile records the workload with its family's
// oracles, so crashmonkey's three entry points judge either family.
type workloadFamily interface {
	id() string
	// skeletonAt is the report-grouping skeleton of a finding at persistence
	// point cp; cp 0 names the whole workload.
	skeletonAt(cp int) string
	text() string
	profile(mk *crashmonkey.Monkey) (*crashmonkey.Profile, error)
}

// oracleMemo is one generated workload's oracle, shared by every matrix row
// the workload is fed to. The value for a key is built on the first row's
// demand, once: the build is single-flight, so two workers testing the
// workload on different rows never both build it, and an error is kept like
// a value. The zero value is ready to use.
type oracleMemo[K comparable, E any] struct {
	mu    sync.Mutex
	built map[K]func() ([]E, error)
}

func (m *oracleMemo[K, E]) get(k K, build func() ([]E, error)) ([]E, error) {
	m.mu.Lock()
	once := m.built[k]
	if once == nil {
		if m.built == nil {
			m.built = make(map[K]func() ([]E, error), 1)
		}
		once = sync.OnceValues(build)
		m.built[k] = once
	}
	m.mu.Unlock()
	return once()
}

// fileWorkload is an ACE workload; a finding at an early persistence point
// groups under the skeleton of the equivalent shorter workload. Every matrix
// row gets the same wrapper. Its oracle is keyed by the row's Guarantees,
// the tracker's only file-system input, so rows in one guarantee class
// share one build.
type fileWorkload struct {
	w      *workload.Workload
	oracle oracleMemo[filesys.Guarantees, *crashmonkey.Expectation]
}

func (f *fileWorkload) id() string               { return f.w.ID }
func (f *fileWorkload) skeletonAt(cp int) string { return f.w.SkeletonAt(cp) }
func (f *fileWorkload) text() string             { return f.w.String() }

func (f *fileWorkload) profile(mk *crashmonkey.Monkey) (*crashmonkey.Profile, error) {
	g := mk.FS.Guarantees()
	exps, err := f.oracle.get(g, func() ([]*crashmonkey.Expectation, error) { return crashmonkey.Expect(f.w, g) })
	if err != nil {
		return nil, err
	}
	return mk.ProfileExpected(f.w, exps)
}

// kvWorkload is a kvace workload: it drives the KV store over the mounted
// backend, and every crash state is recovered by the application. KV
// findings always group under the full skeleton. Every matrix row gets the
// same wrapper; the interval oracle has no file-system input, so every row
// shares one build.
type kvWorkload struct {
	w      *kvace.Workload
	oracle func() []*kvoracle.Expectation
}

func newKVWorkload(w *kvace.Workload) *kvWorkload {
	build := func() []*kvoracle.Expectation { return kvoracle.Build(w.Ops) }
	return &kvWorkload{w: w, oracle: sync.OnceValue(build)}
}

func (k *kvWorkload) id() string            { return k.w.ID }
func (k *kvWorkload) skeletonAt(int) string { return k.w.Skeleton() }
func (k *kvWorkload) text() string          { return k.w.String() }

func (k *kvWorkload) profile(mk *crashmonkey.Monkey) (*crashmonkey.Profile, error) {
	return mk.ProfileKVExpected(k.w, k.oracle())
}

// runWorkload profiles one workload, crash-tests its persistence points,
// and (when configured) sweeps its bounded-reordering and fault-injection
// crash states, building the workload's corpus record. The record is all
// the campaign learns of the outcome: record files it and folds it into
// the row's statistics. The application oracle's classes are folded from
// what the entry points return; they are a deterministic function of the
// workload (verdicts never depend on prune-cache state), so they are
// recorded to the corpus and resume/merge fold the identical totals. Only
// the KV family's verdicts carry a class.
func (r *fsRun) runWorkload(mk *crashmonkey.Monkey, wl workloadFamily, seq int64) {
	rec := &corpus.WorkloadRecord{Seq: seq, ID: wl.id(), Verdict: corpus.VerdictClean}
	p, err := wl.profile(mk)
	if err != nil {
		rec.Verdict = corpus.VerdictError
		rec.Errored = true
		r.record(rec, nil, 0, 0)
		return
	}
	// Hand the profile's pooled buffers (the record buffers, the rolling
	// cursor's overlay) back once every sweep over its log is done.
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
	var classes kvoracle.Counts
	for cp := first; cp <= last; cp++ {
		res, err := mk.TestCheckpoint(p, cp)
		if err != nil {
			// Earlier checkpoints may already have found bugs; keep those
			// reports and verdicts, just stop testing this workload.
			rec.Errored = true
			break
		}
		rec.States++
		classes.Add(res.Class)
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
	// prune-cache state and worker interleaving, so only its sum is stable.
	if r.cfg.Reorder > 0 && !rec.Errored {
		rr, err := mk.ExploreReorder(p, r.cfg.Reorder)
		if err != nil {
			rec.Errored = true
		} else {
			rec.RStates = rr.States
			rec.RChecked = rr.Checked
			rec.RPruned = rr.Pruned
			rec.RClassSkip = rr.ClassSkipped
			rec.RBroken = len(rr.Broken)
			rec.Replayed += rr.ReplayedWrites
			classes.Merge(rr.Classes)
		}
	}
	// The fault-injection sweeps ride the same profile, gated like the
	// reorder sweep so the recorded per-kind totals stay a deterministic
	// function of the workload; only the Checked/Pruned/ClassSkip split
	// depends on shared prune-cache state.
	if r.cfg.Faults.Enabled() && !rec.Errored {
		fr, err := mk.ExploreFaults(p, r.cfg.Faults)
		if err != nil {
			rec.Errored = true
		} else {
			for _, kr := range fr.Kinds {
				rec.Faults = append(rec.Faults, corpus.FaultKindCounts{
					Kind:      kr.Kind.String(),
					States:    kr.States,
					Checked:   kr.Checked,
					Pruned:    kr.Pruned,
					ClassSkip: kr.ClassSkipped,
					Broken:    len(kr.Broken),
				})
				rec.Replayed += kr.ReplayedWrites
				classes.Merge(kr.Classes)
			}
		}
	}
	if classes.Total() > 0 {
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
