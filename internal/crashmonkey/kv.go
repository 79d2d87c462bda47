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
// The pipeline is shared with the file family, not mirrored: this file holds
// only what differs — how a KV workload is profiled, and kvOracle, the
// oracle seam's application-level implementation (sweep.go), which the
// profile carries on every axis. Verdicts live in the same PruneCache,
// salted with kvOracleSalt and the KV expectation fingerprint so they never
// collide with file-level ones.

// KVDir is where the store lives on the file system under test.
const KVDir = "/db"

// kvOracleSalt keys KV verdicts in the shared disk-tier prune cache,
// keeping them disjoint from the file-level oracle entries and the
// unchecked reorder/fault mountability entries.
const kvOracleSalt uint64 = 0x4b564f7261636c65 // "KVOracle"

// ProfileKV builds the workload's interval oracle (kvoracle.Build) and
// profiles it (ProfileKVExpected).
func (mk *Monkey) ProfileKV(w *kvace.Workload) (*Profile, error) {
	return mk.ProfileKVExpected(w, kvoracle.Build(w.Ops))
}

// ProfileKVExpected runs the KV workload against a kvstore on a fresh file
// system over the recording wrapper device, checkpointing after every
// persistence op (sync, flush, reopen). exps is the workload's interval
// oracle as kvoracle.Build returns it; it has no file-system input, so one
// build serves every backend, and the profile shares it: it judges the
// persistence points and the reorder and fault states alike.
func (mk *Monkey) ProfileKVExpected(w *kvace.Workload, exps []*kvoracle.Expectation) (*Profile, error) {
	var o oracle = kvOracle(exps)
	return mk.record(w.ID, len(exps)-1, o, o, func(m filesys.MountedFS, rec *blockdev.Recorder) error {
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

// kvOracle is the application family's oracle on every axis, the workload's
// interval oracle: exps[i] is the expectation after i completed persistence
// points. The interval's expectation keys the verdict, and the store's own
// recovery path plus the expected-state check renders it.
type kvOracle []*kvoracle.Expectation

func (o kvOracle) salt(interval int) uint64 { return kvOracleSalt ^ o[interval].Fingerprint() }

func (o kvOracle) judge(mk *Monkey, crash *blockdev.Snapshot, interval int) (*cachedVerdict, string, error) {
	v, err := mk.recoverKVState(crash, o[interval])
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
		// the KV oracle renders no class, and no tally counts the state
		// (it stays in the file-level Broken accounting); the checkpoint
		// path reports the lower layer's contract breach as the file-level
		// oracle would.
		v.findings = []Finding{{
			Consequence: bugs.Unmountable,
			Path:        "/",
			Detail:      "crash state neither mounted nor was repaired by fsck",
		}}
		return v, nil
	}

	v.classed = true
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

// The KV views below are the general entry points under their KV names,
// kept for bench/, which calls them. They add no behaviour: the class tally
// is the embedded report's Classes.

// TestKVCheckpoint is TestCheckpoint.
func (mk *Monkey) TestKVCheckpoint(p *Profile, cp int) (*Result, error) {
	return mk.TestCheckpoint(p, cp)
}

// KVReorderReport is a ReorderReport under its KV name.
type KVReorderReport struct{ ReorderReport }

// KVFaultKindReport is a FaultKindReport under its KV name.
type KVFaultKindReport struct{ FaultKindReport }

// KVFaultReport is a FaultReport whose kinds are KVFaultKindReports.
type KVFaultReport struct {
	SectorSize int
	Kinds      []KVFaultKindReport
}

// ExploreKVReorder is ExploreReorder.
func (mk *Monkey) ExploreKVReorder(p *Profile, k int) (*KVReorderReport, error) {
	rr, err := mk.ExploreReorder(p, k)
	if err != nil {
		return nil, err
	}
	return &KVReorderReport{*rr}, nil
}

// ExploreKVFaults is ExploreFaults.
func (mk *Monkey) ExploreKVFaults(p *Profile, model blockdev.FaultModel) (*KVFaultReport, error) {
	fr, err := mk.ExploreFaults(p, model)
	if err != nil {
		return nil, err
	}
	report := &KVFaultReport{SectorSize: fr.SectorSize, Kinds: make([]KVFaultKindReport, len(fr.Kinds))}
	for i, kr := range fr.Kinds {
		report.Kinds[i].FaultKindReport = kr
	}
	return report, nil
}
