// Package fleet turns the sharded campaign algebra into a fault-tolerant
// multi-process service: a long-running coordinator owns the residue-class
// ledger and hands shard leases to pull-based workers over a small
// HTTP+JSON protocol. Robustness is the design center, not a feature:
//
//   - Leases carry deadlines and are kept alive by worker heartbeats; a
//     missed heartbeat expires the lease and the class is re-issued. The
//     corpus DoneRecord machinery already distinguishes finished from
//     torn, so a re-issued worker resumes from the dead worker's last
//     checkpoint instead of restarting.
//   - Workers retry every coordinator call with jittered exponential
//     backoff and capped timeouts; a coordinator outage pauses the
//     control plane but never the data plane (campaigns keep running and
//     checkpointing locally).
//   - The coordinator journals every grant/complete/expire/release/split
//     transition to an append-only crash-safe ledger, a corpus.Journal
//     like every corpus shard, so a coordinator crash+restart replays to
//     the identical lease table.
//   - On fleet completion the coordinator folds the shard corpora through
//     campaign.MergeDir, whose residue-system exact-cover check is the
//     end-to-end soundness gate: a merged fleet report is provably the
//     unsharded campaign or the merge refuses.
package fleet

import (
	"fmt"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/campaign"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvace"
)

// Class is one residue class of the sampled workload index space: the
// workloads whose sampled index m satisfies m ≡ R (mod N). Work-stealing
// refines a class into its two children; campaign.MergeStats accepts any
// pairwise-disjoint full-density system, so refinement never breaks the
// merge gate.
type Class struct {
	R int `json:"r"`
	N int `json:"n"`
}

// Split refines the class into its two half-density children:
// (r, n) = (r, 2n) ∪ (r+n, 2n).
func (c Class) Split() (Class, Class) {
	return Class{R: c.R, N: 2 * c.N}, Class{R: c.R + c.N, N: 2 * c.N}
}

func (c Class) String() string { return fmt.Sprintf("%d/%d", c.R, c.N) }

// Spec is the campaign configuration the fleet runs, delivered to workers
// inside every lease response so a worker needs nothing but the
// coordinator URL. It is journaled as the ledger's first record: reopening
// a ledger under a different spec fails loudly instead of silently mixing
// two campaigns in one corpus directory.
type Spec struct {
	// Profile names the workload profile: an ACE file-space profile
	// (ace.Profiles) or a "kv-" application-workload profile (kvace).
	Profile string `json:"profile"`
	// FS lists backend names; the single entry "all" means every backend.
	FS []string `json:"fs"`
	// NumShards is the initial uniform residue partition (≥ 1).
	NumShards int `json:"num_shards"`
	// SampleEvery tests every n-th workload (0/1 = all).
	SampleEvery int64 `json:"sample_every,omitempty"`
	// Reorder is the bounded-reordering sweep bound (0 = off).
	Reorder int `json:"reorder,omitempty"`
	// Faults is the -faults comma list ("" = no fault axis).
	Faults string `json:"faults,omitempty"`
	// Sector is the torn-write granularity (0 = default).
	Sector int `json:"sector,omitempty"`
	// CorpusDir is the shared corpus directory workers checkpoint into.
	// Local fleets share the coordinator's directory via the filesystem.
	CorpusDir string `json:"corpus_dir"`
}

// TierSpec builds a Spec from a named campaign tier.
func TierSpec(tierName, corpusDir string, numShards int) (Spec, error) {
	t, err := campaign.LookupTier(tierName)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Profile:     string(t.Profile),
		FS:          t.FS,
		NumShards:   numShards,
		SampleEvery: t.SampleEvery,
		Reorder:     t.Reorder,
		Faults:      t.Faults,
		Sector:      t.Sector,
		CorpusDir:   corpusDir,
	}, nil
}

// Validate resolves and checks every knob a worker will trust, so a bad
// spec fails at coordinator start instead of inside every worker.
func (s Spec) Validate() error {
	if kvace.IsProfile(s.Profile) {
		if _, err := kvace.Profile(s.Profile); err != nil {
			return fmt.Errorf("fleet: spec: %w", err)
		}
	} else if _, err := ace.Profile(ace.ProfileName(s.Profile)); err != nil {
		return fmt.Errorf("fleet: spec: %w", err)
	}
	if _, err := s.filesystems(); err != nil {
		return err
	}
	if s.NumShards < 1 {
		return fmt.Errorf("fleet: spec: NumShards %d, want ≥ 1", s.NumShards)
	}
	if s.SampleEvery < 0 {
		return fmt.Errorf("fleet: spec: negative SampleEvery %d", s.SampleEvery)
	}
	if _, err := s.faultModel(); err != nil {
		return err
	}
	if s.CorpusDir == "" {
		return fmt.Errorf("fleet: spec: CorpusDir is required")
	}
	return nil
}

// filesystems resolves the FS name list ("all" = every backend).
func (s Spec) filesystems() ([]filesys.FileSystem, error) {
	names := s.FS
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = fsmake.Names()
	}
	fss := make([]filesys.FileSystem, 0, len(names))
	for _, name := range names {
		fs, err := fsmake.NewBugsOnly(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: spec: %w", err)
		}
		fss = append(fss, fs)
	}
	return fss, nil
}

// faultModel parses the Faults/Sector pair.
func (s Spec) faultModel() (blockdev.FaultModel, error) {
	if s.Faults == "" {
		return blockdev.FaultModel{SectorSize: s.Sector}, nil
	}
	kinds, err := blockdev.ParseFaultKinds(s.Faults)
	if err != nil {
		return blockdev.FaultModel{}, fmt.Errorf("fleet: spec: %w", err)
	}
	return blockdev.FaultModel{Kinds: kinds, SectorSize: s.Sector}, nil
}

// config lowers the spec plus one leased class into the campaign Config a
// worker hands to campaign.RunMatrix. NumShards 1 lowers to an unsharded
// campaign so a single-class fleet produces a corpus mergeable (and
// byte-comparable) with a plain run.
func (s Spec) config(c Class) (campaign.Config, []filesys.FileSystem, error) {
	var bounds ace.Bounds
	var kv *kvace.Bounds
	if kvace.IsProfile(s.Profile) {
		kb, err := kvace.Profile(s.Profile)
		if err != nil {
			return campaign.Config{}, nil, fmt.Errorf("fleet: spec: %w", err)
		}
		kv = &kb
	} else {
		var err error
		bounds, err = ace.Profile(ace.ProfileName(s.Profile))
		if err != nil {
			return campaign.Config{}, nil, fmt.Errorf("fleet: spec: %w", err)
		}
	}
	fss, err := s.filesystems()
	if err != nil {
		return campaign.Config{}, nil, err
	}
	faults, err := s.faultModel()
	if err != nil {
		return campaign.Config{}, nil, err
	}
	cfg := campaign.Config{
		Bounds:       bounds,
		KV:           kv,
		SampleEvery:  s.SampleEvery,
		Reorder:      s.Reorder,
		Faults:       faults,
		CorpusDir:    s.CorpusDir,
		Resume:       true,
		ProfileLabel: s.Profile,
	}
	if c.N > 1 {
		cfg.Shard, cfg.NumShards = c.R, c.N
	}
	return cfg, fss, nil
}

// Progress is the rolled-up live progress a heartbeat carries: the same
// cumulative counters campaign.Progress reports, summed across the
// worker's matrix rows.
type Progress struct {
	Workloads      int64 `json:"workloads"`
	States         int64 `json:"states"`
	ReplayedWrites int64 `json:"replayed_writes"`
}

// Protocol messages. Every endpoint is POST with a JSON body (GET for
// /v1/status); errors are plain-text with a meaningful status code, and
// 409 Conflict always means "your lease is gone" — the one signal a
// worker must obey by abandoning the class mid-run.
type (
	// LeaseRequest asks for work. Worker is a stable identity used for
	// the status table and the ledger journal.
	LeaseRequest struct {
		Worker string `json:"worker"`
	}
	// LeaseResponse is one of three shapes: Complete (campaign over, go
	// away), NoWork (all classes leased — retry after RetryMS; the ask is
	// recorded as work-stealing demand), or a grant carrying the class,
	// the lease id for heartbeats, the TTL, and the full Spec.
	LeaseResponse struct {
		Complete bool  `json:"complete,omitempty"`
		NoWork   bool  `json:"no_work,omitempty"`
		RetryMS  int64 `json:"retry_ms,omitempty"`
		Lease    int64 `json:"lease,omitempty"`
		Class    Class `json:"class,omitzero"`
		TTLMS    int64 `json:"ttl_ms,omitempty"`
		Spec     Spec  `json:"spec,omitzero"`
	}
	// HeartbeatRequest keeps a lease alive and reports progress.
	HeartbeatRequest struct {
		Lease    int64    `json:"lease"`
		Progress Progress `json:"progress"`
	}
	// HeartbeatResponse acknowledges the renewed TTL.
	HeartbeatResponse struct {
		TTLMS int64 `json:"ttl_ms"`
	}
	// CompleteRequest reports a class fully swept (every backend's corpus
	// shard carries its completion marker).
	CompleteRequest struct {
		Lease int64 `json:"lease"`
	}
	// ReleaseRequest hands a lease back early (graceful worker shutdown,
	// or a class whose corpus shard a zombie predecessor still holds).
	// Release is idempotent: releasing an already-expired lease is fine.
	ReleaseRequest struct {
		Lease int64 `json:"lease"`
	}
)

// Status is the coordinator's public state: the lease table plus rolled-up
// fleet progress. Deadlines are deliberately absent from ClassStatus —
// they are re-armed on coordinator restart, and their absence is what lets
// TestCoordinatorRestart compare tables for strict equality.
type Status struct {
	Spec     Spec          `json:"spec"`
	Classes  []ClassStatus `json:"classes"`
	Pending  int           `json:"pending"`
	Leased   int           `json:"leased"`
	Done     int           `json:"done"`
	Complete bool          `json:"complete"`
	// Progress sums the latest heartbeat of every live lease; completed
	// classes' totals live in the merged report, not here.
	Progress Progress `json:"progress"`
}

// ClassStatus is one row of the lease table.
type ClassStatus struct {
	Class  Class      `json:"class"`
	State  LeaseState `json:"state"`
	Lease  int64      `json:"lease,omitempty"`
	Worker string     `json:"worker,omitempty"`
}
