// Package campaign orchestrates full B3 testing runs: ACE generates
// workloads in a bounded space, a pool of workers drives CrashMonkey over
// them (the in-process analogue of the paper's 780-VM cluster, §6.1), and
// reports are grouped and deduplicated (§5.3). It also gathers the
// performance and resource statistics of §6.3–§6.5.
//
// Two departures from the paper make campaigns scale further:
//
//   - Every persistence point of a workload is crash-tested (the paper's
//     §5.3 strategy tested only the last), with representative crash-state
//     pruning reusing verdicts for states already judged — so the broader
//     coverage costs little more than final-only testing. FinalOnly and
//     NoPrune restore the paper's behaviour.
//   - Progress can be persisted to an append-only per-profile corpus shard
//     (internal/corpus), checkpointed periodically, and resumed after a
//     kill: generation is deterministic, so recorded sequence numbers are
//     skipped and their verdicts folded back into the statistics.
package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/corpus"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/kvace"
	"b3/internal/report"
	"b3/internal/workload"
)

// testShardHook, when non-nil, observes every corpus shard a campaign
// opens. Tests use it to inject mid-run shard failures.
var testShardHook func(*corpus.Shard)

// testBuildHook, when non-nil, observes every ACE workload a campaign
// materialises. Tests use it to count builds.
var testBuildHook func(*workload.Workload)

// fsRun is the per-file-system state of a (matrix) campaign: one row of the
// matrix, with its own prune cache, corpus shard, statistics, and reports.
// All rows share one enumeration and one worker pool.
type fsRun struct {
	cfg   Config // per-FS copy: cfg.FS is this row's file system
	cache *crashmonkey.PruneCache
	shard *corpus.Shard
	done  map[int64]*corpus.WorkloadRecord
	meter blockdev.BlockMeter

	// mu guards the folds into stats, reports and corpusErr while the pool
	// runs: workers record live workloads, the generator folds resumed
	// ones, and Progress snapshots read stats. (generate sets Generated and
	// GenDur, which no fold touches, once enumeration ends.)
	mu           sync.Mutex
	stats        *Stats
	reports      []*report.Report
	corpusErr    error
	corpusFailed atomic.Bool // also read without mu, by the generator
}

// record is how a tested workload reaches the campaign: rec is appended to
// the corpus shard and folded into the row's statistics. p, the workload's
// profile when its checkpoint sweep ran (nil otherwise), and the sweep's
// summed replay and check time feed the live-only timing and dirty-byte
// aggregates a record does not carry.
func (r *fsRun) record(rec *corpus.WorkloadRecord, p *crashmonkey.Profile, replayDur, checkDur time.Duration) {
	var err error
	if r.shard != nil {
		err = r.shard.Append(rec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && r.corpusErr == nil {
		r.corpusErr = err
		r.corpusFailed.Store(true)
	}
	s := r.stats
	r.reports = s.fold(rec, r.cfg.NoPrune, r.reports)
	if p != nil {
		s.ProfileDur += p.ProfileDur
		s.ReplayDur += replayDur
		s.CheckDur += checkDur
		s.TotalDirty += p.DirtyBytes
		s.DirtySample++
		s.MaxDirty = max(s.MaxDirty, p.DirtyBytes)
	}
}

// openCorpus opens (or resumes) the run's corpus shard.
func (r *fsRun) openCorpus() error {
	cfg := &r.cfg
	if cfg.CorpusDir == "" {
		return nil
	}
	label := cfg.ProfileLabel
	if label == "" {
		label = "campaign"
	}
	// The key hashes the FULL config fingerprint (not just the bounds), so
	// differently-configured campaigns never share — or truncate — each
	// other's shard file; a residue class appends its identity as a
	// readable suffix, so different shards of one campaign are separate
	// files too. Unsharded campaigns keep the exact pre-sharding key —
	// corpora written before the shard feature stay resumable. The Meta
	// check on resume still guards against hash collisions and hand-moved
	// files.
	fph := fnv.New64a()
	fph.Write([]byte(cfg.configFingerprint()))
	key := fmt.Sprintf("%s__%s__%016x", cfg.FS.Name(), label, fph.Sum64())
	if n := cfg.numShards(); n > 0 {
		key = fmt.Sprintf("%s__s%dof%d", key, cfg.Shard, n)
	}
	sample := cfg.SampleEvery
	if sample <= 1 {
		sample = 0
	}
	meta := corpus.Meta{
		FS:        cfg.FS.Name(),
		Profile:   label,
		Bounds:    cfg.configFingerprint(),
		Shard:     cfg.Shard,
		NumShards: cfg.numShards(),
		Sample:    sample,
	}
	var err error
	if cfg.Resume {
		r.shard, r.done, err = corpus.Resume(cfg.CorpusDir, key, meta)
	} else {
		r.shard, err = corpus.Create(cfg.CorpusDir, key, meta)
	}
	if err != nil {
		return err
	}
	if cfg.CheckpointEvery > 0 {
		r.shard.FlushEvery = cfg.CheckpointEvery
	}
	r.stats.CorpusPath = r.shard.Path()
	if testShardHook != nil {
		testShardHook(r.shard)
	}
	return nil
}

// needs reports whether the row still wants workload seq tested — the
// per-row half of generation. A row whose corpus write failed is fed nothing
// further: the failure fails the whole campaign, so testing on for hours
// would only produce results to discard. A workload already recorded in the
// resumed shard is folded back into the statistics instead of being
// re-tested.
func (r *fsRun) needs(seq int64) bool {
	if r.corpusFailed.Load() {
		return false
	}
	rec, ok := r.done[seq]
	if !ok {
		return true
	}
	r.mu.Lock()
	r.stats.Resumed++
	r.reports = r.stats.fold(rec, r.cfg.NoPrune, r.reports)
	r.mu.Unlock()
	return false
}

// generate runs the campaign's one enumeration and fans every class member
// out to the matrix rows (§5.2: ACE produces the bounded workload set once
// and every file system is tested on it). The space, the sequence numbering
// and the class rule — MaxWorkloads, interrupt, inClass — are the same for
// every row, so they are evaluated once per sequence number; each member is
// then offered to every row in matrix order, each row getting its own
// wrapper (wrappers carry the row's profile) around the one shared workload,
// which nothing downstream mutates. Per row the jobs ascend in seq, exactly
// as a single-FS campaign feeds them. When the campaign is sharded and
// unsampled, the generator's residue-class partition restricts the stream
// to this shard's workloads while keeping global sequence numbers (and the
// full-space Generated count) intact. Every row's Stats.Generated and
// GenDur are set from this one enumeration. Returns the generation error,
// if any.
func generate(cfg *Config, runs []*fsRun, jobs chan<- fsJob) error {
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 1
	}
	genStart := time.Now()
	nShards := cfg.numShards()
	// feed applies the per-sequence campaign filters shared by both workload
	// families and all rows, and offers a class member to every row; wrap
	// builds one row's wrapper. It returns false to halt enumeration.
	feed := func(seq int64, wrap func() workloadFamily) bool {
		if cfg.MaxWorkloads > 0 && seq > cfg.MaxWorkloads {
			return false
		}
		// A graceful interrupt stops feeding; in-flight jobs drain and are
		// recorded, and finish() skips the completion marker.
		if cfg.interrupted() {
			return false
		}
		// Rows are independent, so one failed corpus only stops that row
		// being fed (needs); with every row failed nothing is left to test.
		if allCorporaFailed(runs) {
			return false
		}
		if inClass(seq, sample, cfg.Shard, nShards) {
			for _, r := range runs {
				if r.needs(seq) {
					jobs <- fsJob{run: r, wl: wrap(), seq: seq}
				}
			}
		}
		return true
	}
	var generated int64
	var genErr error
	if cfg.KV != nil {
		gen := kvace.New(*cfg.KV)
		if sample == 1 {
			// Unsampled: the kvace-level partition filters during enumeration.
			gen.Shard, gen.NumShards = cfg.Shard, nShards
		}
		generated, genErr = gen.GenerateSeq(func(seq int64, w *kvace.Workload) bool {
			return feed(seq, func() workloadFamily { return &kvWorkload{w: w} })
		})
	} else {
		gen := ace.New(cfg.Bounds)
		if sample == 1 {
			// Unsampled: the ace-level partition filters during enumeration.
			gen.Shard, gen.NumShards = cfg.Shard, nShards
		}
		// The workload is built on demand: by the first row that needs this
		// sequence number, once, and shared by the rows after it.
		var w *workload.Workload
		var build func() *workload.Workload
		wrap := func() workloadFamily {
			if w == nil {
				w = build()
				if testBuildHook != nil {
					testBuildHook(w)
				}
			}
			return &fileWorkload{w: w}
		}
		generated, genErr = gen.Walk(func(seq int64, b func() *workload.Workload) bool {
			w, build = nil, b
			return feed(seq, wrap)
		})
	}
	genDur := time.Since(genStart)
	for _, r := range runs {
		r.stats.Generated, r.stats.GenDur = generated, genDur
	}
	return genErr
}

// inClass is the campaign's class rule, stated once: whether workload seq
// is tested by residue class shard of nShards at sampling stride sample.
// Only multiples of sample are tested, and a sharded campaign partitions
// that sampled subsequence (workload sample·m belongs to class m mod
// nShards), not raw sequence numbers — raw residues starve every class
// whose residue never hits a sample multiple (sample 20, shard 1/2:
// multiples of 20 are all even). At sample 1 this is the raw ace/kvace
// residue class; nShards ≤ 1 means unsharded.
func inClass(seq, sample int64, shard, nShards int) bool {
	if seq%sample != 0 {
		return false
	}
	return nShards <= 1 || (seq/sample)%int64(nShards) == int64(shard)
}

// allCorporaFailed reports whether every row's corpus shard has failed.
func allCorporaFailed(runs []*fsRun) bool {
	for _, r := range runs {
		if !r.corpusFailed.Load() {
			return false
		}
	}
	return true
}

// finish completes the run's Stats — wall time, block-layer and prune-cache
// figures, bug groups — once the worker pool has drained. Errors are
// returned unwrapped (the corpus package already prefixes them); RunMatrix
// adds the one campaign-and-FS-naming wrap.
func (r *fsRun) finish(start time.Time, interrupted bool) error {
	if r.corpusErr != nil {
		return r.corpusErr
	}
	stats := r.stats
	stats.Elapsed = time.Since(start)
	// A completed campaign marks the shard mergeable; an interrupted one
	// deliberately does not — its enumeration stopped early, so the marker
	// would lie — but still closes (checkpointing) so every recorded
	// workload is durable and the shard resumes exactly here. Close
	// explicitly so a failed final checkpoint surfaces instead of vanishing
	// in the deferred (idempotent) Close.
	if r.shard != nil {
		if !interrupted {
			if err := r.shard.AppendDone(corpus.DoneRecord{
				Generated: stats.Generated,
				ElapsedNS: int64(stats.Elapsed),
			}); err != nil {
				return err
			}
		}
		if err := r.shard.Close(); err != nil {
			return err
		}
	}
	stats.BlocksRead = r.meter.BlocksRead.Load()
	stats.BytesAllocated = r.meter.BytesAllocated.Load()
	if r.cache != nil {
		cs := r.cache.Stats()
		stats.DistinctStates = cs.DiskStates
		stats.PruneCap = cs.Cap
		stats.DiskEvictions = cs.DiskEvictions
		stats.TreeEvictions = cs.TreeEvictions
	}
	db := r.cfg.KnownDB
	if r.cfg.KnownDBFor != nil {
		db = r.cfg.KnownDBFor(r.cfg.FS.Name())
	}
	stats.group(r.reports, db)
	return nil
}

// Run executes a single-file-system campaign. On a graceful interrupt the
// partial statistics are returned alongside ErrInterrupted.
func Run(cfg Config) (*Stats, error) {
	m, err := RunMatrix(cfg, nil)
	if err != nil {
		if errors.Is(err, ErrInterrupted) && m != nil && len(m.PerFS) > 0 {
			return m.PerFS[0], err
		}
		return nil, err
	}
	return m.PerFS[0], nil
}

// RunMatrix fans one campaign configuration out across several file
// systems at once — the in-process analogue of giving each file system its
// own slice of the paper's VM cluster (§6.1). All rows share one enumeration
// of the workload space (generate) and one worker pool, so a fast row's idle
// capacity drains into the slower ones; each row keeps its own prune cache,
// corpus shard, statistics, and bug groups. A nil or empty fss runs just
// cfg.FS.
func RunMatrix(cfg Config, fss []filesys.FileSystem) (*Matrix, error) {
	if cfg.Resume && cfg.CorpusDir == "" {
		return nil, fmt.Errorf("campaign: Resume requires CorpusDir")
	}
	if cfg.NumShards < 0 {
		return nil, fmt.Errorf("campaign: negative shard count %d", cfg.NumShards)
	}
	if cfg.numShards() > 0 {
		if cfg.Shard < 0 || cfg.Shard >= cfg.NumShards {
			return nil, fmt.Errorf("campaign: shard %d outside residue range 0..%d",
				cfg.Shard, cfg.NumShards-1)
		}
	} else if cfg.Shard != 0 {
		return nil, fmt.Errorf("campaign: Shard %d set without NumShards", cfg.Shard)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if cfg.Faults.Enabled() {
		// Canonical kind order everywhere downstream: sweeps, counters,
		// corpus records, and the config fingerprint all agree.
		cfg.Faults = cfg.Faults.Canonical()
	}
	if len(fss) == 0 {
		if cfg.FS == nil {
			return nil, fmt.Errorf("campaign: no file system configured")
		}
		fss = []filesys.FileSystem{cfg.FS}
	}
	seen := map[string]bool{}
	for _, fs := range fss {
		if seen[fs.Name()] {
			return nil, fmt.Errorf("campaign: duplicate file system %q in matrix", fs.Name())
		}
		seen[fs.Name()] = true
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	runs := make([]*fsRun, 0, len(fss))
	for _, fs := range fss {
		stats := &Stats{
			FSName:       fs.Name(),
			Shard:        cfg.Shard,
			NumShards:    cfg.numShards(),
			ReorderBound: max(cfg.Reorder, 0),
		}
		if cfg.Faults.Enabled() {
			// One row per configured kind, in canonical order, even when the
			// sweep finds no workload to run against.
			stats.FaultSector = cfg.Faults.SectorSize
			for _, k := range cfg.Faults.Kinds {
				stats.FaultKinds = append(stats.FaultKinds, FaultKindStats{Kind: k.String()})
			}
		}
		r := &fsRun{cfg: cfg, stats: stats}
		r.cfg.FS = fs
		if !cfg.NoPrune {
			cap := cfg.PruneCap
			switch {
			case cap == 0:
				cap = crashmonkey.DefaultPruneCap
			case cap < 0:
				cap = 0 // unbounded
			}
			r.cache = crashmonkey.NewPruneCacheCap(cap)
		}
		if err := r.openCorpus(); err != nil {
			// Release shards already opened for earlier rows.
			for _, prev := range runs {
				if prev.shard != nil {
					prev.shard.Close()
				}
			}
			return nil, fmt.Errorf("campaign: %s: %w", fs.Name(), err)
		}
		runs = append(runs, r)
	}
	defer func() {
		for _, r := range runs {
			if r.shard != nil {
				r.shard.Close()
			}
		}
	}()

	// Live progress: one ticker goroutine sums the rows' statistics and
	// hands cumulative snapshots to the callback. Stopped (and waited for)
	// before the final snapshot, so OnProgress is never called concurrently
	// with itself.
	var progressDone chan struct{}
	snapshot := func() Progress {
		p := Progress{Elapsed: time.Since(start)}
		for _, r := range runs {
			r.mu.Lock()
			s := r.stats
			p.Workloads += s.Tested + s.Errors
			p.States += s.StatesTotal + s.ReorderStates
			p.FaultStates += s.FaultStates()
			p.ReplayedWrites += s.ReplayedWrites
			r.mu.Unlock()
		}
		p.States += p.FaultStates
		return p
	}
	var progressStop chan struct{}
	if cfg.OnProgress != nil {
		every := cfg.ProgressEvery
		if every <= 0 {
			every = DefaultProgressEvery
		}
		progressStop = make(chan struct{})
		progressDone = make(chan struct{})
		go func() {
			defer close(progressDone)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					cfg.OnProgress(snapshot())
				case <-progressStop:
					return
				}
			}
		}()
	}

	jobs := make(chan fsJob, 4*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			monkeys := make(map[*fsRun]*crashmonkey.Monkey, len(runs))
			for j := range jobs {
				mk := monkeys[j.run]
				if mk == nil {
					mk = &crashmonkey.Monkey{
						FS:              j.run.cfg.FS,
						SkipWriteChecks: j.run.cfg.SkipWriteChecks,
						Prune:           j.run.cache,
						ScratchStates:   j.run.cfg.ScratchStates,
						NoClassPrune:    j.run.cfg.NoClassPrune,
						NoCommutePrune:  j.run.cfg.NoCommutePrune,
						Meter:           &j.run.meter,
					}
					monkeys[j.run] = mk
				}
				j.run.runWorkload(mk, j.wl, j.seq)
			}
		}()
	}

	// One enumeration per campaign, run here: every row is tested on the same
	// workloads, and the shared sequence numbering is what keeps each row's
	// corpus shard identical to — and mutually resumable with — a single-FS
	// campaign's.
	genErr := generate(&cfg, runs, jobs)
	close(jobs)
	wg.Wait()
	if cfg.OnProgress != nil {
		close(progressStop)
		<-progressDone
		cfg.OnProgress(snapshot())
	}

	if genErr != nil {
		return nil, fmt.Errorf("campaign: generation: %w", genErr)
	}
	// Sample the interrupt once so every row agrees on whether this run may
	// mark its shard complete (an interrupt landing mid-finish must not
	// leave some rows mergeable and others not).
	interrupted := cfg.interrupted()
	matrix := &Matrix{}
	for _, r := range runs {
		if err := r.finish(start, interrupted); err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", r.cfg.FS.Name(), err)
		}
		matrix.PerFS = append(matrix.PerFS, r.stats)
	}
	matrix.Elapsed = time.Since(start)
	if interrupted {
		return matrix, ErrInterrupted
	}
	return matrix, nil
}
