// Package crashmonkey implements the CrashMonkey framework (§5.1): it
// profiles a workload's block IO on a recording wrapper device, inserts
// checkpoints at persistence points, constructs crash states by replaying
// the recorded IO, captures oracles, and runs the AutoChecker — read checks
// comparing persisted files/directories against the oracle, plus write
// checks on a disposable copy-on-write fork of the crash state.
package crashmonkey

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/kvoracle"
	"b3/internal/workload"
)

// DefaultDeviceBlocks sizes the test device at 100 MiB (Table 3: "start
// with a clean file-system image of size 100MB").
const DefaultDeviceBlocks = 25600

// Monkey tests workloads against one file system. Every workload it
// profiles overlays one base image the Monkey formats on first use.
type Monkey struct {
	// FS is the file system under test.
	FS filesys.FileSystem
	// SkipWriteChecks disables the destructive write checks.
	SkipWriteChecks bool
	// Prune, when non-nil, enables representative crash-state pruning:
	// states whose (content, oracle) fingerprint was already judged reuse
	// the cached verdict instead of re-running recovery and the checks.
	// The cache may be shared between Monkeys driving the same file-system
	// configuration (see prune.go).
	Prune *PruneCache
	// ScratchStates restores the from-scratch crash-state construction
	// path: a fresh snapshot plus a full log-prefix replay (and an
	// overlay-scan fingerprint) per state, instead of the rolling
	// ReplayCursor. It is the cross-check mode for the incremental engine —
	// identical fingerprints and verdicts, strictly more replayed writes
	// (docs/TESTING.md). The reference engine constructs every state and
	// looks its fingerprint up in the disk tier after the build, where the
	// incremental engine looks the predicted one up before it forks; a
	// persistence point's verdict can still come from the tree tier.
	ScratchStates bool
	// Meter, when non-nil, counts block-level construction and read IO
	// (writes replayed, blocks read, buffer bytes allocated).
	Meter *blockdev.BlockMeter

	// salt caches pruneSalt (constant per Monkey configuration).
	saltOnce sync.Once
	salt     uint64

	// base is the formatted image every profile overlays (formatted).
	baseOnce sync.Once
	base     *blockdev.MemDisk
	baseErr  error
}

// formatted returns the Monkey's pristine base image, formatting a fresh
// device of DefaultDeviceBlocks blocks on first use. Mkfs is deterministic,
// and nothing writes the base afterwards — every profile, cursor, fork and
// sweep overlays it — so one image serves every workload the Monkey tests,
// and fingerprints, which are relative to it, are the same as on a
// per-workload image. A Mkfs failure is sticky.
func (mk *Monkey) formatted() (*blockdev.MemDisk, error) {
	mk.baseOnce.Do(func() {
		base := blockdev.NewMemDisk(DefaultDeviceBlocks)
		if err := mk.FS.Mkfs(base); err != nil {
			mk.baseErr = fmt.Errorf("crashmonkey: mkfs: %w", err)
			return
		}
		mk.base = base
	})
	return mk.base, mk.baseErr
}

// Profile is a recorded run of one workload: the base image, the IO log
// with checkpoints, and the oracles its family judges crash states by.
type Profile struct {
	// Workload is the ACE workload profiled; nil for a KV workload.
	Workload *workload.Workload
	base     *blockdev.MemDisk
	rec      *blockdev.Recorder
	// checks judges the persistence points (TestCheckpoint), sweeps the
	// reorder and fault states (ExploreReorder, ExploreFaults): fileOracle
	// and mountOracle for an ACE workload, kvOracle on both for a KV one.
	checks, sweeps oracle
	// ProfileDur is the wall time of the profiling phase (§6.3): running the
	// workload over the recording device. Building the oracle is not part of
	// it (Expect, kvoracle.Build).
	ProfileDur time.Duration
	// DirtyBytes is the COW overlay footprint after the workload (§6.5).
	DirtyBytes int64

	// cursor is the rolling replay cursor the incremental construction
	// path advances through the log; created on first use, guarded by
	// cursorMu. TestCheckpoint calls on one Profile must not run
	// concurrently in the default incremental mode: forks read through the
	// rolling snapshot, which a concurrent seek would be mutating. Every
	// caller (Run, RunAll, the campaign workers) tests a profile from a
	// single goroutine.
	cursorMu sync.Mutex
	cursor   *blockdev.ReplayCursor
}

// state constructs the crash state for checkpoint cp: in the default
// incremental mode it advances the rolling cursor and hands out a COW fork
// (recovery writes land in the fork, never the rolling base); in scratch
// mode it replays the whole log prefix onto a fresh snapshot. Returns the
// state device and the number of writes replayed to build it.
//
// cached, when non-nil, is the state's one verdict-cache lookup, consulted
// with its fingerprint: the cursor's after the incremental seek but before
// the fork, the overlay scan's after the scratch build. Returning true means
// the caller already knows the verdict for that fingerprint, and state
// returns a nil snapshot (the scratch build released).
func (p *Profile) state(cp int, scratch bool, meter *blockdev.BlockMeter,
	cached func(fp uint64) bool) (*blockdev.Snapshot, int64, error) {
	if scratch {
		crash, n, err := scratchBuild(p.base, meter, func(dst blockdev.Device) (int64, error) {
			return blockdev.ReplayToCheckpoint(dst, p.rec.Log(), cp)
		})
		if err == nil && cached != nil && cached(crash.Fingerprint()) {
			crash.Release()
			return nil, n, nil
		}
		return crash, n, err
	}
	p.cursorMu.Lock()
	defer p.cursorMu.Unlock()
	if p.cursor == nil {
		p.cursor = blockdev.NewReplayCursor(p.base, p.rec.Log())
		p.cursor.SetMeter(meter)
	}
	n, err := p.cursor.SeekCheckpoint(cp)
	if err != nil {
		return nil, n, err
	}
	if cached != nil && cached(p.cursor.Fingerprint()) {
		return nil, n, nil
	}
	return p.cursor.Fork(), n, nil
}

// Release returns the profile's block buffers to the shared pool: the
// rolling cursor's overlay and the recorder's record buffers. The base image
// is the Monkey's and outlives the profile. The profile — its Log, and
// anything still reading through it, like an unreleased crash-state fork —
// must not be used afterwards. Campaign workers call it once a workload's
// sweeps are done.
func (p *Profile) Release() {
	p.cursorMu.Lock()
	if p.cursor != nil {
		p.cursor.Release()
		p.cursor = nil
	}
	p.cursorMu.Unlock()
	p.rec.Release()
}

// Checkpoints reports the number of persistence points recorded.
func (p *Profile) Checkpoints() int { return p.rec.Checkpoints() }

// WritesRecorded reports the number of block writes profiled.
func (p *Profile) WritesRecorded() int { return p.rec.WritesRecorded() }

// Log returns the recorded write log the crash-state sweeps replay. The
// slice and every record's Data are owned by the profile: callers must not
// mutate them, nor use them after Release, which recycles the buffers.
func (p *Profile) Log() []blockdev.Record { return p.rec.Log() }

// WritesBetweenCheckpoints supports the §4.1 crash-state-space ablation.
func (p *Profile) WritesBetweenCheckpoints() []int {
	return blockdev.CountWritesBetweenCheckpoints(p.rec.Log())
}

// PrefixState constructs the crash state after the first n recorded block
// writes, ignoring persistence points — the mid-operation crash-state
// extension the paper leaves open (§4.4 limitation 2). It returns the
// device and how many writes were actually applied.
func (p *Profile) PrefixState(n int) (blockdev.Device, int, error) {
	crash := blockdev.NewSnapshot(p.base)
	applied, err := blockdev.ReplayPrefix(crash, p.rec.Log(), n)
	return crash, applied, err
}

// Result is the outcome of testing one crash state.
type Result struct {
	Workload   *workload.Workload
	FSName     string
	Checkpoint int
	Mountable  bool
	// FsckRun reports whether fsck was attempted after a mount failure,
	// and FsckRepaired whether it claimed success (§5.1: "fsck is run only
	// if the recovered file system is un-mountable").
	FsckRun      bool
	FsckRepaired bool
	Findings     []Finding
	ReplayDur    time.Duration
	CheckDur     time.Duration
	// ReplayedWrites is the number of recorded writes replayed to construct
	// this crash state. The incremental cursor replays only the delta since
	// the previous checkpoint; the scratch path replays the whole prefix.
	ReplayedWrites int64
	// StateHash is the dirty-block fingerprint of the crash state (set
	// only when pruning is enabled).
	StateHash uint64
	// Pruned reports that the verdict was reused from the prune cache
	// rather than re-checked; PrunedBy says which tier matched ("disk":
	// identical device contents, "tree": identical recovered tree).
	Pruned   bool
	PrunedBy string
	// Class is the application oracle's class of the recovered state;
	// kvoracle.NumClasses when the verdict has none, which is every
	// file-family verdict and every KV state that neither mounted nor was
	// repaired. Counts.Add tallies nothing for NumClasses.
	Class kvoracle.Class
}

// Buggy reports whether any crash-consistency violation was found.
func (r *Result) Buggy() bool { return len(r.Findings) > 0 }

// Primary returns the most severe finding.
func (r *Result) Primary() Finding {
	if len(r.Findings) == 0 {
		return Finding{}
	}
	best := r.Findings[0]
	for _, f := range r.Findings[1:] {
		if severity(f.Consequence) > severity(best.Consequence) {
			best = f
		}
	}
	return best
}

// adopt copies a verdict into the result. tier names the cache tier it was
// reused from, "" when this state was judged afresh.
func (r *Result) adopt(v *cachedVerdict, tier string) {
	r.Pruned, r.PrunedBy = tier != "", tier
	r.Mountable, r.FsckRun, r.FsckRepaired = v.mountable, v.fsckRun, v.fsckRepaired
	r.Findings = cloneFindings(v.findings)
	r.Class = kvoracle.NumClasses
	if v.classed {
		r.Class = v.class
	}
}

// severityOrder ranks consequences least- to most-severe. It must stay
// exhaustive over the bugs registry (TestSeverityIsTotal): a consequence
// missing here would otherwise silently rank below everything.
var severityOrder = []bugs.Consequence{
	bugs.WrongLinkCount, bugs.EmptySymlink, bugs.XattrInconsistent,
	bugs.HoleNotPersisted, bugs.BlocksLost, bugs.WrongSize,
	bugs.ResurrectedEntry, bugs.DataLoss, bugs.DirEntryMissing,
	bugs.WrongLocation, bugs.CannotCreateFiles, bugs.UnremovableDir,
	bugs.FileMissing, bugs.FileInBothLocations, bugs.RenameBothLost,
	bugs.KVResurrectedDelete, bugs.KVLostAckWrite, bugs.KVUnreplayable,
	bugs.Unmountable,
}

var severityRank = func() map[bugs.Consequence]int {
	m := make(map[bugs.Consequence]int, len(severityOrder))
	for i, c := range severityOrder {
		m[c] = i + 1
	}
	return m
}()

// severity is total: ConsequenceNone ranks below every real consequence, and
// a consequence not yet placed in severityOrder ranks above everything —
// new failure classes must surface as the primary finding, never be hidden
// behind a known one.
func severity(c bugs.Consequence) int {
	if c == bugs.ConsequenceNone {
		return 0
	}
	if r, ok := severityRank[c]; ok {
		return r
	}
	return len(severityOrder) + 1
}

// record profiles one workload of either family: run drives its operations
// against a mount over the recording device, checkpointing the recorder at
// every persistence point, and the profile must then hold the want
// checkpoints its oracles expect. The profile keeps the family's oracles,
// checks for its persistence points and sweeps for its reorder and fault
// states, so one set of entry points serves both families. The recorder
// overlays the Monkey's formatted base image (formatted) and copies each
// write once, into a pooled buffer that serves both the log and the
// profile's own reads; Profile.Release hands the buffers back once the
// workload's sweeps are done, so a workload allocates neither a device-sized
// table nor a fresh file system. On any error the profile is released.
func (mk *Monkey) record(id string, want int, checks, sweeps oracle,
	run func(filesys.MountedFS, *blockdev.Recorder) error) (*Profile, error) {
	start := time.Now()
	base, err := mk.formatted()
	if err != nil {
		return nil, err
	}
	p := &Profile{base: base, rec: blockdev.NewRecorder(base), checks: checks, sweeps: sweeps}
	m, err := mk.FS.Mount(p.rec)
	if err != nil {
		err = fmt.Errorf("crashmonkey: mount: %w", err)
	} else if err = run(m, p.rec); err == nil {
		p.ProfileDur = time.Since(start)
		p.DirtyBytes = p.rec.DirtyBytes()
		if got := p.rec.Checkpoints(); got != want {
			err = fmt.Errorf("crashmonkey: %s recorded %d checkpoints, oracle expects %d", id, got, want)
		}
	}
	if err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Expect runs the oracle over the workload under the persistence guarantees
// g, snapshotting the expected state after every persistence point (§5.1
// "Profiling workloads"). The result depends on nothing but w and g, so one
// build serves every file system whose Guarantees equal g. Expectations are
// immutable and safe to share between goroutines.
func Expect(w *workload.Workload, g filesys.Guarantees) ([]*Expectation, error) {
	tracker := NewTracker(g)
	var exps []*Expectation
	for i, op := range w.Ops {
		if err := tracker.Apply(op, i); err != nil {
			return nil, fmt.Errorf("crashmonkey: oracle op %d (%s): %w", i, op, err)
		}
		if op.Kind.IsPersistence() {
			exps = append(exps, tracker.Snapshot())
		}
	}
	return exps, nil
}

// ProfileWorkload builds the workload's oracle (Expect) and profiles it
// (ProfileExpected).
func (mk *Monkey) ProfileWorkload(w *workload.Workload) (*Profile, error) {
	exps, err := Expect(w, mk.FS.Guarantees())
	if err != nil {
		return nil, err
	}
	return mk.ProfileExpected(w, exps)
}

// ProfileExpected runs the workload on a fresh file system over the
// recording wrapper device, checkpointing after every persistence point
// (§5.1 "Profiling workloads"). exps is the workload's oracle as Expect
// builds it under this file system's guarantees; the profile shares it.
func (mk *Monkey) ProfileExpected(w *workload.Workload, exps []*Expectation) (*Profile, error) {
	if len(exps) > 0 && exps[0].g != mk.FS.Guarantees() {
		return nil, fmt.Errorf("crashmonkey: %s: oracle built for other guarantees than %s's", w.ID, mk.FS.Name())
	}
	p, err := mk.record(w.ID, len(exps), fileOracle(exps), mountOracle{}, func(m filesys.MountedFS, rec *blockdev.Recorder) error {
		for i, op := range w.Ops {
			if err := workload.Apply(m, op, i); err != nil {
				return fmt.Errorf("crashmonkey: op %d (%s): %w", i, op, err)
			}
			if op.Kind.IsPersistence() {
				rec.Checkpoint()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.Workload = w
	return p, nil
}

// TestCheckpoint constructs the crash state for checkpoint cp (1-based),
// recovers it, and judges it by the profile's persistence-point oracle:
// the AutoChecker for an ACE workload, the store's own recovery and the
// expected-state oracle for a KV one. The pipeline — construction with its
// one disk-tier lookup, judge, store — is the same for both.
func (mk *Monkey) TestCheckpoint(p *Profile, cp int) (*Result, error) {
	if n := p.Checkpoints(); cp < 1 || cp > n {
		return nil, fmt.Errorf("crashmonkey: checkpoint %d out of range (1..%d)", cp, n)
	}
	res := &Result{Workload: p.Workload, FSName: mk.FS.Name(), Checkpoint: cp}

	// The state's one cache lookup runs inside construction, on its
	// fingerprint: the incremental cursor's hashes only the seek's writes,
	// so a state whose (content, oracle) class was already judged is never
	// forked at all.
	var key stateKey
	var hit *cachedVerdict
	var cached func(fp uint64) bool
	if mk.Prune != nil {
		key.oracle = mk.pruneSalt() ^ p.checks.salt(cp)
		cached = func(fp uint64) bool {
			key.state = fp
			v, ok := mk.Prune.lookupDisk(key)
			hit = v
			return ok
		}
	}

	replayStart := time.Now()
	crash, replayed, err := p.state(cp, mk.ScratchStates, mk.Meter, cached)
	if err != nil {
		return nil, fmt.Errorf("crashmonkey: replay: %w", err)
	}
	res.ReplayedWrites = replayed
	res.ReplayDur = time.Since(replayStart)
	res.StateHash = key.state
	if crash == nil {
		res.adopt(hit, "disk")
		return res, nil
	}
	// Forks hold only recovery/checker writes; hand their buffers back to
	// the pool once the verdict is composed (nothing below retains device
	// memory: findings are strings, the index copies file contents).
	defer crash.Release()

	v, tier, err := mk.judged(key, func() (*cachedVerdict, string, error) {
		checkStart := time.Now()
		defer func() { res.CheckDur = time.Since(checkStart) }()
		return p.checks.judge(mk, crash, cp)
	})
	if err != nil {
		return nil, fmt.Errorf("crashmonkey: checkpoint %d: %w", cp, err)
	}
	res.adopt(v, tier)
	return res, nil
}

// fileOracle is the file family's checkpoint oracle, the tracker's
// expectation at each persistence point: the expectation keys the verdict,
// and the AutoChecker — read checks over the crash index, write checks on a
// COW fork, with the tree tier in between — renders it.
type fileOracle []*Expectation

func (o fileOracle) salt(cp int) uint64 { return o[cp-1].Fingerprint() }

func (o fileOracle) judge(mk *Monkey, crash *blockdev.Snapshot, cp int) (*cachedVerdict, string, error) {
	exp := o[cp-1]
	m, err := mk.FS.Mount(crash)
	if err != nil {
		if !errors.Is(err, filesys.ErrCorrupted) {
			return nil, "", fmt.Errorf("mount: %w", err)
		}
		// Last resort: fsck (§5.1). Unlike the sweeps' mountOrRepair there
		// is no remount: a persistence point that needed fsck is reported
		// Unmountable whatever fsck claims.
		repaired, ferr := mk.FS.Fsck(crash)
		return &cachedVerdict{
			fsckRun:      true,
			fsckRepaired: repaired && ferr == nil,
			findings: []Finding{{
				Consequence: bugs.Unmountable,
				Path:        "/",
				Detail:      err.Error(),
			}},
		}, "", nil
	}

	// One walk of the recovered state feeds both the tree-tier hash and
	// the read checks. The index (maps, inode slab, file contents) is
	// recycled once the verdict is composed — findings are strings, so
	// nothing below retains index memory.
	idx, ierr := buildIndex(m)
	defer idx.release()

	// Tree tier: distinct disk images recovering to the same logical tree
	// share a verdict (the representative-testing insight).
	var treeKey stateKey
	haveTree := false
	if mk.Prune != nil && ierr == nil {
		if th, terr := hashIndex(idx); terr == nil {
			treeKey = stateKey{state: th, oracle: exp.Fingerprint() ^ mk.pruneSalt()}
			haveTree = true
			if findings, ok := mk.Prune.lookupTree(treeKey); ok {
				return &cachedVerdict{mountable: true, findings: cloneFindings(findings)}, "tree", nil
			}
		}
	}

	v := &cachedVerdict{mountable: true}
	if ierr != nil {
		v.findings = append(v.findings, walkFailure(ierr))
	} else {
		v.findings = append(v.findings, exp.checkReadIndexed(idx)...)
	}

	if !mk.SkipWriteChecks {
		// Write checks are destructive: run them on a COW fork so the
		// crash state itself is untouched.
		fork := blockdev.NewSnapshot(crash)
		fm, err := mk.FS.Mount(fork)
		if err == nil {
			v.findings = append(v.findings, CheckWrite(fm)...)
		} else {
			v.findings = append(v.findings, Finding{
				Consequence: bugs.Unmountable,
				Path:        "/",
				Detail:      fmt.Sprintf("write-check remount failed: %v", err),
			})
		}
	}
	if haveTree {
		mk.Prune.storeTree(treeKey, cloneFindings(v.findings))
	}
	return v, "", nil
}

// Run profiles the workload and tests its final crash state. Per the §5.3
// testing strategy, earlier checkpoints of a seq-N workload are equivalent
// to already-explored shorter workloads, so only the last one is tested.
func (mk *Monkey) Run(w *workload.Workload) (*Result, error) {
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	if p.Checkpoints() == 0 {
		return nil, fmt.Errorf("crashmonkey: workload %s has no persistence point", w.ID)
	}
	return mk.TestCheckpoint(p, p.Checkpoints())
}

// RunAll tests every checkpoint of the workload (the exhaustive variant).
func (mk *Monkey) RunAll(w *workload.Workload) ([]*Result, error) {
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	out := make([]*Result, 0, p.Checkpoints())
	for cp := 1; cp <= p.Checkpoints(); cp++ {
		r, err := mk.TestCheckpoint(p, cp)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
