package crashmonkey

import (
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/kvace"
	"b3/internal/kvoracle"
	"b3/internal/kvstore"
)

// Application-level crash testing: instead of a file-system workload checked
// against the file-level oracle, a KV workload runs the kvstore application
// on top of the mounted file system, and every crash state is recovered by
// the *application* (CURRENT → manifest → table → WAL replay) and judged by
// the kvoracle expected-state oracle. This surfaces the bug classes B3's
// file-level checks structurally cannot see: an acknowledged KV update can
// vanish without any persisted *file* losing data the file-level oracle
// knows about, because the lost bytes live inside application files whose
// durability contract only the application understands.
//
// The sweep pipeline is shared with the file family, not mirrored: this file
// holds only what differs — how a KV workload is profiled, and kvOracle, the
// oracle seam's application-level implementation (sweep.go). Verdicts live in
// the same PruneCache, salted with kvOracleSalt and the KV expectation
// fingerprint so they never collide with file-level ones.

// KVDir is where the store lives on the file system under test.
const KVDir = "/db"

// kvOracleSalt keys KV verdicts in the shared disk-tier prune cache,
// keeping them disjoint from the file-level oracle entries and the
// unchecked reorder/fault mountability entries.
const kvOracleSalt uint64 = 0x4b564f7261636c65 // "KVOracle"

// KVProfile is a recorded run of one KV workload: the shared block-level
// profile plus the per-interval expected-state oracle.
type KVProfile struct {
	*Profile
	Workload *kvace.Workload
	// exps[i] is the expectation after i completed persistence points.
	exps []*kvoracle.Expectation
}

// ProfileKV builds the workload's interval oracle (kvoracle.Build) and
// profiles it (ProfileKVExpected).
func (mk *Monkey) ProfileKV(w *kvace.Workload) (*KVProfile, error) {
	return mk.ProfileKVExpected(w, kvoracle.Build(w.Ops))
}

// ProfileKVExpected runs the KV workload against a kvstore on a fresh file
// system over the recording wrapper device, checkpointing after every
// persistence op (sync, flush, reopen). exps is the workload's interval
// oracle as kvoracle.Build returns it; it has no file-system input, so one
// build serves every backend, and the profile shares it.
func (mk *Monkey) ProfileKVExpected(w *kvace.Workload, exps []*kvoracle.Expectation) (*KVProfile, error) {
	p, err := mk.record(w.ID, len(exps)-1, func(m filesys.MountedFS, rec *blockdev.Recorder) error {
		s, err := kvstore.Create(m, KVDir)
		if err != nil {
			return fmt.Errorf("crashmonkey: kv create: %w", err)
		}
		for i, op := range w.Ops {
			switch op.Kind {
			case kvace.OpPut:
				err = s.Put(op.Key, op.Value)
			case kvace.OpDelete:
				err = s.Delete(op.Key)
			case kvace.OpSync:
				err = s.Sync()
			case kvace.OpFlush:
				err = s.Flush()
			case kvace.OpReopen:
				if err = s.Close(); err == nil {
					// The checkpoint lands before reopening: the crash state at
					// this persistence point is the closed store, and reopening
					// issues only reads.
					rec.Checkpoint()
					s, err = kvstore.Open(m, KVDir)
				}
			case kvace.NumOpKinds:
				err = fmt.Errorf("sentinel op kind")
			}
			if err != nil {
				return fmt.Errorf("crashmonkey: kv op %d (%s): %w", i, op, err)
			}
			if op.Kind.IsPersistence() && op.Kind != kvace.OpReopen {
				rec.Checkpoint()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &KVProfile{Profile: p, Workload: w, exps: exps}, nil
}

// KVResult is the outcome of testing one KV crash state: the file-level
// accounting (Result.Workload stays nil) plus the oracle class.
type KVResult struct {
	Result
	Workload *kvace.Workload
	// Class is the oracle verdict for the recovered store contents;
	// meaningful only when the file system mounted (or was repaired).
	Class kvoracle.Class
}

// kvConsequence maps an oracle class to its bugs-registry consequence.
// The switch is total over Class.
func kvConsequence(c kvoracle.Class) bugs.Consequence {
	switch c {
	case kvoracle.ClassLegal:
		return bugs.ConsequenceNone
	case kvoracle.ClassLostAck:
		return bugs.KVLostAckWrite
	case kvoracle.ClassResurrected:
		return bugs.KVResurrectedDelete
	case kvoracle.ClassUnreplayable:
		return bugs.KVUnreplayable
	case kvoracle.NumClasses:
		return bugs.ConsequenceNone
	}
	return bugs.ConsequenceNone
}

// kvOracle is the application family's oracle on every axis: the interval's
// expectation keys the verdict, and the store's own recovery path plus the
// expected-state check renders it.
type kvOracle struct {
	mk   *Monkey
	exps []*kvoracle.Expectation
}

func (o kvOracle) salt(interval int) uint64 { return kvOracleSalt ^ o.exps[interval].Fingerprint() }

func (o kvOracle) judge(crash *blockdev.Snapshot, interval int) (*cachedVerdict, string, error) {
	v, err := o.mk.recoverKVState(crash, o.exps[interval])
	return v, "", err
}

// recoverKVState mounts the crash state (fsck fallback as usual), opens the
// store through the application's own recovery path, and classifies the
// recovered contents against the expectation. The verdict is cacheable:
// recovery and classification are deterministic functions of the device
// contents, the file-system configuration, and the expectation.
func (mk *Monkey) recoverKVState(crash blockdev.Device, exp *kvoracle.Expectation) (*cachedVerdict, error) {
	m, v, err := mk.mountOrRepair(crash)
	if err != nil {
		return nil, err
	}
	if m == nil {
		// FS-level broken state: the application never gets to run, so
		// the KV oracle renders no class verdict. The sweep tallies
		// exclude it by its flags (it stays in the file-level Broken
		// accounting); the checkpoint path reports the lower layer's
		// contract breach as the file-level oracle would.
		v.findings = []Finding{{
			Consequence: bugs.Unmountable,
			Path:        "/",
			Detail:      "crash state neither mounted nor was repaired by fsck",
		}}
		return v, nil
	}

	s, err := kvstore.Open(m, KVDir)
	if err != nil {
		v.class = kvoracle.ClassUnreplayable
		v.findings = []Finding{{
			Consequence: bugs.KVUnreplayable,
			Path:        KVDir,
			Detail:      err.Error(),
		}}
		return v, nil
	}
	viols := exp.Check(s.Dump())
	v.class = kvoracle.Classify(viols)
	for _, viol := range viols {
		v.findings = append(v.findings, Finding{
			Consequence: kvConsequence(viol.Class),
			Path:        KVDir + "/" + viol.Key,
			Detail:      viol.Detail,
		})
	}
	return v, nil
}

// TestKVCheckpoint constructs the crash state for checkpoint cp (1-based),
// mounts it, runs the application's recovery, and checks the store contents
// against the interval oracle.
func (mk *Monkey) TestKVCheckpoint(kp *KVProfile, cp int) (*KVResult, error) {
	res := &KVResult{Workload: kp.Workload}
	v, err := mk.testState(kp.Profile, cp, &res.Result, kvOracle{mk, kp.exps})
	if err != nil {
		return nil, err
	}
	res.Class = v.class
	return res, nil
}

// RunKV profiles the KV workload and tests its final crash state (the §5.3
// strategy: earlier checkpoints repeat shorter workloads).
func (mk *Monkey) RunKV(w *kvace.Workload) (*KVResult, error) {
	kp, err := mk.ProfileKV(w)
	if err != nil {
		return nil, err
	}
	defer kp.Release()
	if kp.Checkpoints() == 0 {
		return nil, fmt.Errorf("crashmonkey: kv workload %s has no persistence point", w.ID)
	}
	return mk.TestKVCheckpoint(kp, kp.Checkpoints())
}

// KVReorderReport is a bounded-reordering sweep of one KV workload: the
// file-level recovery accounting plus the oracle classification of every
// state the application could recover on.
type KVReorderReport struct {
	ReorderReport
	// Classes tallies the oracle verdicts over the mountable (or repaired)
	// states; FS-level broken states are excluded — they are already
	// violations of the lower layer's contract.
	Classes kvoracle.Counts
}

// KVFaultKindReport is one fault kind's sweep of one KV workload.
type KVFaultKindReport struct {
	FaultKindReport
	Classes kvoracle.Counts
}

// KVFaultReport summarises the fault-injection sweeps of one KV workload.
type KVFaultReport struct {
	SectorSize int
	Kinds      []KVFaultKindReport
}

// tallyKV folds one verdict's class into the class counters. FS-broken
// states render no application verdict.
func tallyKV(v *cachedVerdict, counts *kvoracle.Counts) {
	if v.mountable || v.fsckRepaired {
		counts.Add(v.class)
	}
}

// ExploreKVReorder sweeps the bounded-reordering crash states of a profiled
// KV run at bound k, classifying every recoverable state through the
// application oracle. A state in flight during an epoch is judged by the
// expectation of that epoch's persistence interval — the acknowledged state
// of the last completed persistence point plus the interval's pending tail —
// and the expectation's fingerprint is part of the class key, so the sweep
// prunes at enumeration time exactly like the file-level one.
func (mk *Monkey) ExploreKVReorder(kp *KVProfile, k int) (*KVReorderReport, error) {
	report := &KVReorderReport{}
	rr, err := mk.exploreReorder(kp.Profile, k, kvOracle{mk, kp.exps},
		func(v *cachedVerdict) { tallyKV(v, &report.Classes) })
	if err != nil {
		return nil, err
	}
	report.ReorderReport = *rr
	return report, nil
}

// ExploreKVFaults sweeps the fault-injection crash states of a profiled KV
// run for every kind in model, classifying every recoverable state through
// the application oracle.
func (mk *Monkey) ExploreKVFaults(kp *KVProfile, model blockdev.FaultModel) (*KVFaultReport, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	report := &KVFaultReport{SectorSize: model.Sector(), Kinds: make([]KVFaultKindReport, len(model.Kinds))}
	for i, kind := range model.Kinds {
		kr := &report.Kinds[i]
		var err error
		kr.FaultKindReport, err = mk.exploreFaultKind(kp.Profile, kind, model.Sector(), kvOracle{mk, kp.exps},
			func(v *cachedVerdict) { tallyKV(v, &kr.Classes) })
		if err != nil {
			return nil, err
		}
	}
	return report, nil
}
