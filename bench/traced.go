package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"b3"
	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/crashmonkey"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/report"
	"b3/internal/workload"
)

// tally is the additive per-row accounting of the traced pass. Workers fill
// a job-local tally and fold it into the row once per workload.
type tally struct {
	tested, failing, errors       int64
	states, statesPruned          int64
	reorderStates, reorderSkipped int64
	reorderBroken                 int64
	faultStates, faultSkipped     int64
	faultBroken                   int64
	replayed, fsckRuns            int64
	kv                            kvoracle.Counts
	constructNS, checkNS, jobNS   int64
	profileUS, checkUS            []float64
	firstSeen                     map[report.GroupKey]int64
	reports                       []*report.Report
	// generated and dispatched are set once per row by its generator.
	generated, dispatched int64
}

func (t *tally) add(o *tally) {
	t.tested += o.tested
	t.failing += o.failing
	t.errors += o.errors
	t.states += o.states
	t.statesPruned += o.statesPruned
	t.reorderStates += o.reorderStates
	t.reorderSkipped += o.reorderSkipped
	t.reorderBroken += o.reorderBroken
	t.faultStates += o.faultStates
	t.faultSkipped += o.faultSkipped
	t.faultBroken += o.faultBroken
	t.replayed += o.replayed
	t.fsckRuns += o.fsckRuns
	t.kv.Merge(o.kv)
	t.constructNS += o.constructNS
	t.checkNS += o.checkNS
	t.jobNS += o.jobNS
	t.profileUS = append(t.profileUS, o.profileUS...)
	t.checkUS = append(t.checkUS, o.checkUS...)
	t.reports = append(t.reports, o.reports...)
	for key, seq := range o.firstSeen {
		t.see(key, seq)
	}
}

// see notes that a workload with this sequence number produced the group.
func (t *tally) see(key report.GroupKey, seq int64) {
	if t.firstSeen == nil {
		t.firstSeen = map[report.GroupKey]int64{}
	}
	if first, ok := t.firstSeen[key]; !ok || seq < first {
		t.firstSeen[key] = seq
	}
}

// emit records a buggy crash state's report and when its group first showed.
func (t *tally) emit(seq int64, rep *report.Report) {
	t.reports = append(t.reports, rep)
	t.see(report.GroupKey{Skeleton: rep.Skeleton, Consequence: rep.Consequence}, seq)
}

// state folds in one tested persistence point; the file and KV results
// carry the same accounting under different types.
func (t *tally) state(pruned, fsckRun bool, replayed int64, replayDur, checkDur time.Duration) {
	t.states++
	if pruned {
		t.statesPruned++
	} else {
		t.checkUS = append(t.checkUS, float64(checkDur)/1e3)
	}
	if fsckRun {
		t.fsckRuns++
	}
	t.replayed += replayed
	t.constructNS += int64(replayDur)
	t.checkNS += int64(checkDur)
}

// reorder folds in one workload's bounded-reordering sweep.
func (t *tally) reorder(rr *crashmonkey.ReorderReport) {
	t.reorderStates += int64(rr.States)
	t.reorderSkipped += int64(rr.Pruned + rr.ClassSkipped + rr.CommuteSkipped)
	t.reorderBroken += int64(len(rr.Broken))
	t.replayed += rr.ReplayedWrites
}

// faultKind folds in one fault kind's sweep of one workload.
func (t *tally) faultKind(kr *crashmonkey.FaultKindReport) {
	t.faultStates += int64(kr.States)
	t.faultSkipped += int64(kr.Pruned + kr.ClassSkipped)
	t.faultBroken += int64(len(kr.Broken))
	t.replayed += kr.ReplayedWrites
}

// tracedRow is one matrix row of the traced pass: the backend, its shared
// prune cache and block meter, and the folded tally.
type tracedRow struct {
	fs    b3.FileSystem
	cache *crashmonkey.PruneCache
	meter blockdev.BlockMeter

	mu  sync.Mutex
	sum tally
}

func (r *tracedRow) fold(job *tally) {
	r.mu.Lock()
	r.sum.add(job)
	r.mu.Unlock()
}

// tracedJob is one workload bound for one row; exactly one of w and kw is set.
type tracedJob struct {
	row *tracedRow
	w   *workload.Workload
	kw  *kvace.Workload
	seq int64
}

// runTraced drives the campaign's per-workload pipeline from exported calls
// only — generate → profile → test every persistence point → reorder sweep
// → fault sweeps → report — with the same worker count, one shared prune
// cache per backend and the same residue class as the untraced pass, and a
// span around every call. Its exact counts must equal the untraced pass's;
// that equality is what licenses reading its time split as the campaign's.
func runTraced(spec passSpec) (*passResult, error) {
	def := spec.Def
	fss, err := def.backends()
	if err != nil {
		return nil, err
	}
	c, err := def.campaign(spec.Seed, spec.Workers, false)
	if err != nil {
		return nil, err
	}
	rows := make([]*tracedRow, len(fss))
	for i, fs := range fss {
		rows[i] = &tracedRow{fs: fs, cache: crashmonkey.NewPruneCacheCap(crashmonkey.DefaultPruneCap)}
	}
	workers := spec.Workers
	tr := newTracer(1 + workers + len(rows))
	res := &passResult{SetupS: spec.sinceStart()}

	rt0 := markRuntime()
	cpu0, t0 := cpuSeconds(), time.Now()

	jobs := make(chan tracedJob, 4*workers) // the campaign's own queue depth
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			monkeys := map[*tracedRow]*crashmonkey.Monkey{}
			for j := range jobs {
				mk := monkeys[j.row]
				if mk == nil {
					mk = &crashmonkey.Monkey{FS: j.row.fs, Prune: j.row.cache, Meter: &j.row.meter}
					monkeys[j.row] = mk
				}
				var job tally
				root := ln.begin("job", j.seq)
				if j.kw != nil {
					traceKVJob(ln, mk, c, j, &job)
				} else {
					traceFileJob(ln, mk, c, j, &job)
				}
				ln.end(root)
				job.jobNS = ln.spans[root].EndNS - ln.spans[root].StartNS
				j.row.fold(&job)
			}
		}(tr.lane(1 + i))
	}
	genErrs := make([]error, len(rows))
	var genWG sync.WaitGroup
	for i, row := range rows {
		genWG.Add(1)
		go func(i int, row *tracedRow, ln *lane) {
			defer genWG.Done()
			genErrs[i] = traceGenerate(ln, def, c, row, jobs)
		}(i, row, tr.lane(1+workers+i))
	}
	genWG.Wait()
	close(jobs)
	wg.Wait()
	for i, err := range genErrs {
		if err != nil {
			return nil, fmt.Errorf("%s: %s: generation: %w", def.Name, rows[i].fs.Name(), err)
		}
	}

	// Grouping and known-bug dedup, as fsRun.finish does them.
	main := tr.lane(0)
	var lastNew int64
	for _, row := range rows {
		sp := main.begin("report.group", 0)
		groups := report.GroupReports(row.sum.reports)
		b3.KnownBugDB(row.fs.Name()).Split(groups)
		main.end(sp)
		s := &row.sum
		counts := rowCounts{
			FS:            row.fs.Name(),
			Generated:     s.generated,
			Tested:        s.tested,
			Failing:       s.failing,
			Errors:        s.errors,
			Groups:        len(groups),
			GroupHash:     groupHash(groups),
			States:        s.states,
			ReorderStates: s.reorderStates,
			ReorderBroken: s.reorderBroken,
			FaultStates:   s.faultStates,
			FaultBroken:   s.faultBroken,
			KV:            [4]int64{s.kv.Legal, s.kv.LostAck, s.kv.Resurrected, s.kv.Unreplayable},
		}
		res.Rows = append(res.Rows, counts)
		res.Pairs += classSize(c, s.generated)
		res.EnumStates += counts.enumStates()
		for _, seq := range s.firstSeen {
			lastNew = max(lastNew, classSize(c, seq))
		}
	}
	sortRows(res.Rows)
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	rt1 := markRuntime()
	res.AllocMB = float64(rt1.ms.TotalAlloc-rt0.ms.TotalAlloc) / (1 << 20)

	layers := tracedLayers(def, tr, rows, res)
	layers["last_new_group_workloads"] = float64(lastNew)
	rt1.since(rt0, res.Pairs, layers)
	if err := probeLayers(spec, c, rows, layers); err != nil {
		return nil, err
	}
	res.Layers = layers
	if err := tr.write(filepath.Join(spec.OutDir, "trace-"+def.Name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// runtimeMark is a reading of the allocator and collector counters.
type runtimeMark struct {
	ms    runtime.MemStats
	gcCPU float64
}

func markRuntime() *runtimeMark {
	m := &runtimeMark{gcCPU: gcCPUSeconds()}
	runtime.ReadMemStats(&m.ms)
	return m
}

// since writes the runtime.* layer metrics for the interval from→m.
func (m *runtimeMark) since(from *runtimeMark, pairs int64, layers map[string]float64) {
	layers["runtime.alloc_mb"] = float64(m.ms.TotalAlloc-from.ms.TotalAlloc) / (1 << 20)
	layers["runtime.allocs_per_workload"] = ratio(float64(m.ms.Mallocs-from.ms.Mallocs), float64(pairs))
	layers["runtime.gc_cpu_s"] = m.gcCPU - from.gcCPU
	layers["runtime.gc_cycles"] = float64(m.ms.NumGC - from.ms.NumGC)
}

// gcCPUSeconds reads the runtime's estimate of CPU spent in the collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// traceGenerate enumerates one row's space exactly as fsRun.generate does —
// generator-level residue filter when unsampled, sampled-subsequence
// partition otherwise — feeding class members to the shared pool. The emit
// spans under the generate span are time blocked on the pool.
func traceGenerate(ln *lane, def workloadDef, c b3.Campaign, row *tracedRow, jobs chan<- tracedJob) error {
	sample := max(c.SampleEvery, 1)
	// past mirrors the campaign's MaxWorkloads stop (set only by -scale).
	past := func(seq int64) bool { return c.MaxWorkloads > 0 && seq > c.MaxWorkloads }
	var dispatched int64
	emit := func(j tracedJob) {
		sp := ln.begin("generate.emit", j.seq)
		jobs <- j
		ln.end(sp)
		dispatched++
	}
	var generated int64
	var err error
	name := "ace.generate"
	if def.isKV() {
		name = "kvace.generate"
	}
	sp := ln.begin(name, 0)
	if def.isKV() {
		bounds, perr := kvace.Profile(def.Profile)
		if perr != nil {
			return perr
		}
		gen := kvace.New(bounds)
		if sample == 1 {
			gen.Shard, gen.NumShards = c.Shard, c.NumShards
		}
		generated, err = gen.GenerateSeq(func(seq int64, w *kvace.Workload) bool {
			if past(seq) {
				return false
			}
			if inClass(c, seq) {
				emit(tracedJob{row: row, kw: w, seq: seq})
			}
			return true
		})
	} else {
		gen := ace.New(*c.Bounds)
		if sample == 1 {
			gen.Shard, gen.NumShards = c.Shard, c.NumShards
		}
		generated, err = gen.GenerateSeq(func(seq int64, w *workload.Workload) bool {
			if past(seq) {
				return false
			}
			if inClass(c, seq) {
				emit(tracedJob{row: row, w: w, seq: seq})
			}
			return true
		})
	}
	ln.end(sp)
	row.mu.Lock()
	row.sum.generated = generated
	row.sum.dispatched = dispatched
	row.mu.Unlock()
	return err
}

// traceFileJob mirrors campaign's runWorkload for one file-level workload.
func traceFileJob(ln *lane, mk *crashmonkey.Monkey, c b3.Campaign, j tracedJob, t *tally) {
	sp := ln.begin("crashmonkey.profile", j.seq)
	p, err := mk.ProfileWorkload(j.w)
	ln.end(sp)
	if err != nil {
		t.errors++
		return
	}
	defer p.Release()
	last := p.Checkpoints()
	if last == 0 {
		return
	}
	t.profileUS = append(t.profileUS, float64(p.ProfileDur)/1e3)
	errored, buggy := false, false
	for cp := 1; cp <= last; cp++ {
		sp := ln.begin("crashmonkey.checkpoint", j.seq)
		res, err := mk.TestCheckpoint(p, cp)
		ln.end(sp)
		if err != nil {
			t.errors++
			errored = true
			break
		}
		t.state(res.Pruned, res.FsckRun, res.ReplayedWrites, res.ReplayDur, res.CheckDur)
		if res.Buggy() {
			buggy = true
			sp := ln.begin("report.from_result", j.seq)
			t.emit(j.seq, report.FromResult(res))
			ln.end(sp)
		}
	}
	if c.Reorder > 0 && !errored {
		sp := ln.begin("crashmonkey.reorder", j.seq)
		rr, err := mk.ExploreReorder(p, c.Reorder)
		ln.end(sp)
		if err != nil {
			t.errors++
			errored = true
		} else {
			t.reorder(rr)
		}
	}
	if c.Faults.Enabled() && !errored {
		sp := ln.begin("crashmonkey.faults", j.seq)
		fr, err := mk.ExploreFaults(p, c.Faults)
		ln.end(sp)
		if err != nil {
			t.errors++
			errored = true
		} else {
			for i := range fr.Kinds {
				t.faultKind(&fr.Kinds[i])
			}
		}
	}
	if buggy {
		t.failing++
	}
	if !errored {
		t.tested++
	}
}

// traceKVJob mirrors campaign's runKVWorkload for one KV workload.
func traceKVJob(ln *lane, mk *crashmonkey.Monkey, c b3.Campaign, j tracedJob, t *tally) {
	w := j.kw
	sp := ln.begin("crashmonkey.kv_profile", j.seq)
	kp, err := mk.ProfileKV(w)
	ln.end(sp)
	if err != nil {
		t.errors++
		return
	}
	defer kp.Release()
	last := kp.Checkpoints()
	if last == 0 {
		return
	}
	t.profileUS = append(t.profileUS, float64(kp.ProfileDur)/1e3)
	errored, buggy := false, false
	for cp := 1; cp <= last; cp++ {
		sp := ln.begin("crashmonkey.kv_checkpoint", j.seq)
		res, err := mk.TestKVCheckpoint(kp, cp)
		ln.end(sp)
		if err != nil {
			t.errors++
			errored = true
			break
		}
		t.state(res.Pruned, res.FsckRun, res.ReplayedWrites, res.ReplayDur, res.CheckDur)
		if res.Mountable || res.FsckRepaired {
			t.kv.Add(res.Class)
		}
		if res.Buggy() {
			buggy = true
			t.emit(j.seq, &report.Report{
				FSName:      mk.FS.Name(),
				WorkloadID:  w.ID,
				Skeleton:    w.Skeleton(),
				Consequence: res.Primary().Consequence,
				Findings:    res.Findings,
				Workload:    w.String(),
			})
		}
	}
	if c.Reorder > 0 && !errored {
		sp := ln.begin("crashmonkey.kv_reorder", j.seq)
		rr, err := mk.ExploreKVReorder(kp, c.Reorder)
		ln.end(sp)
		if err != nil {
			t.errors++
			errored = true
		} else {
			t.reorder(&rr.ReorderReport)
			t.kv.Merge(rr.Classes)
		}
	}
	if c.Faults.Enabled() && !errored {
		sp := ln.begin("crashmonkey.kv_faults", j.seq)
		fr, err := mk.ExploreKVFaults(kp, c.Faults)
		ln.end(sp)
		if err != nil {
			t.errors++
			errored = true
		} else {
			for i := range fr.Kinds {
				t.faultKind(&fr.Kinds[i].FaultKindReport)
				t.kv.Merge(fr.Kinds[i].Classes)
			}
		}
	}
	if buggy {
		t.failing++
	}
	if !errored {
		t.tested++
	}
}

// tracedLayers turns the spans and tallies of a matrix traced pass into the
// per-layer metrics the pass itself can see; probeLayers adds the bare-call
// ones. Every per-layer name is present afterwards, 0 where a layer did not
// run on this workload.
func tracedLayers(def workloadDef, tr *tracer, rows []*tracedRow, res *passResult) map[string]float64 {
	layers := map[string]float64{}
	for _, m := range perLayerMetrics() {
		layers[m.Name] = 0
	}
	self, tot := tr.selfTimes(), tr.totals()
	var sum tally
	var evictions, distinct float64
	for _, row := range rows {
		s := &row.sum
		sum.add(s)
		sum.generated += s.generated
		sum.dispatched += s.dispatched
		layers["fs."+row.fs.Name()+".sweep_s"] = float64(s.jobNS) / 1e9
		ps := row.cache.Stats()
		evictions += float64(ps.Evictions())
		distinct += float64(ps.DiskStates)
		layers["blockdev.blocks_read"] += float64(row.meter.BlocksRead.Load())
		layers["blockdev.bytes_allocated"] += float64(row.meter.BytesAllocated.Load())
	}
	skipped := float64(sum.statesPruned + sum.reorderSkipped + sum.faultSkipped)
	states := float64(sum.states + sum.reorderStates + sum.faultStates)

	gen, genName := "ace", "ace.generate"
	if def.isKV() {
		gen, genName = "kvace", "kvace.generate"
	}
	// The enumerate_s and ns_per_enumerated metrics are filled by
	// probeLayers from a bare enumeration: a generator's span here is wall
	// time spent mostly runnable behind the workers, not its cost.
	layers[gen+".enumerated"] = float64(sum.generated)
	if !def.isKV() {
		layers["ace.streamed"] = float64(sum.dispatched)
		layers["ace.useful_ratio"] = ratio(float64(sum.dispatched), float64(sum.generated))
	}

	prefix := "crashmonkey."
	if def.isKV() {
		prefix = "crashmonkey.kv_"
		layers["crashmonkey.kv_profile_s"] = tot["crashmonkey.kv_profile"]
		layers["crashmonkey.kv_checkpoint_s"] = tot["crashmonkey.kv_checkpoint"]
		layers["crashmonkey.kv_reorder_s"] = tot["crashmonkey.kv_reorder"]
		layers["crashmonkey.kv_faults_s"] = tot["crashmonkey.kv_faults"]
	} else {
		layers["crashmonkey.profile_s"] = tot["crashmonkey.profile"]
		layers["crashmonkey.profile_us_p50"] = quantile(sum.profileUS, 0.5)
		layers["crashmonkey.profile_us_p99"] = quantile(sum.profileUS, 0.99)
		layers["crashmonkey.construct_s"] = float64(sum.constructNS) / 1e9
		layers["crashmonkey.check_s"] = float64(sum.checkNS) / 1e9
		layers["crashmonkey.checkpoint_s"] = tot["crashmonkey.checkpoint"]
		layers["crashmonkey.check_us_p50"] = quantile(sum.checkUS, 0.5)
		layers["crashmonkey.check_us_p99"] = quantile(sum.checkUS, 0.99)
		layers["crashmonkey.reorder_s"] = tot["crashmonkey.reorder"]
		layers["crashmonkey.faults_s"] = tot["crashmonkey.faults"]
	}
	layers["crashmonkey.checkpoint_states"] = float64(sum.states)
	layers["crashmonkey.checkpoint_pruned_ratio"] = ratio(float64(sum.statesPruned), float64(sum.states))
	layers["crashmonkey.reorder_states"] = float64(sum.reorderStates)
	layers["crashmonkey.reorder_us_per_state"] = ratio(tot[prefix+"reorder"]*1e6, float64(sum.reorderStates))
	layers["crashmonkey.reorder_skip_ratio"] = ratio(float64(sum.reorderSkipped), float64(sum.reorderStates))
	layers["crashmonkey.fault_states"] = float64(sum.faultStates)
	layers["crashmonkey.fault_us_per_state"] = ratio(tot[prefix+"faults"]*1e6, float64(sum.faultStates))
	layers["crashmonkey.fault_skip_ratio"] = ratio(float64(sum.faultSkipped), float64(sum.faultStates))
	layers["crashmonkey.prune_hit_ratio"] = ratio(skipped, states)
	layers["crashmonkey.prune_evictions"] = evictions
	layers["crashmonkey.prune_distinct_states"] = distinct
	layers["crashmonkey.replayed_writes_per_state"] = ratio(float64(sum.replayed), states)
	layers["fs.fsck_runs"] = float64(sum.fsckRuns)
	layers["kvoracle.legal"] = float64(sum.kv.Legal)
	layers["kvoracle.lost_ack"] = float64(sum.kv.LostAck)
	layers["kvoracle.resurrected"] = float64(sum.kv.Resurrected)
	layers["kvoracle.unreplayable"] = float64(sum.kv.Unreplayable)
	layers["report.group_s"] = self["report.group"] + self["report.from_result"]
	layers["report.groups"] = float64(res.groups())

	// Accounted share: of the time the sweep goroutines were busy — workers
	// inside a job, generators enumerating — how much fell inside a span
	// that names a layer. The remainder is the benchmark's own glue.
	busy := tot["job"] + self[genName]
	layers["trace.accounted_share"] = ratio(busy-self["job"], busy)
	layers["trace.cpu_s"] = res.CPUS
	return layers
}
