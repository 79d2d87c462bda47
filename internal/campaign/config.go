package campaign

import (
	"errors"
	"fmt"
	"time"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/kvace"
	"b3/internal/report"
)

// Config configures one campaign.
type Config struct {
	// FS is the file system under test (safe for concurrent mounts).
	FS filesys.FileSystem
	// Bounds is the ACE exploration space (ignored when KV is set).
	Bounds ace.Bounds
	// KV, when non-nil, switches the campaign to the application-level
	// workload family: the bounded kvace space is enumerated instead of the
	// ACE file-system space, each workload drives a kvstore on the mounted
	// file system, and every crash state is recovered by the application
	// and judged by the kvoracle expected-state oracle instead of the
	// file-level oracle. All the campaign machinery — sampling, sharding,
	// corpus resume, reorder and fault sweeps, pruning — applies unchanged.
	KV *kvace.Bounds
	// Workers sets the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// MaxWorkloads stops generation after this many workloads (0 = all).
	MaxWorkloads int64
	// SampleEvery tests only every n-th workload (1 or 0 = all). Every
	// sequence number is still walked — once per campaign, however many
	// matrix rows it feeds — so generation counts are exact, but only the
	// tested workloads are built.
	SampleEvery int64

	// FinalOnly restores the paper's §5.3 strategy of testing only the
	// final persistence point of each workload. The default crash-tests
	// every persistence point.
	FinalOnly bool
	// Reorder, when positive, additionally sweeps every workload's
	// bounded-reordering crash states at that bound (§4.4 limitation 2):
	// in-order write prefixes plus the in-flight epoch with up to Reorder
	// writes dropped. Those states are judged for recoverability
	// (mount/fsck), not against the oracle, and byte-identical states share
	// one verdict through the row's prune cache. 0 disables the sweep.
	Reorder int
	// Faults, when its Kinds list is non-empty, additionally sweeps every
	// workload's fault-injection crash states for each listed kind — torn
	// writes at FaultModel sector granularity, zeroed/bit-flipped
	// corruption of unsynced blocks, and misdirected writes (the axis
	// orthogonal to Reorder). Like reorder states these are judged for
	// recoverability (mount/fsck), not against the oracle, and
	// byte-identical states within a kind share one verdict through the
	// row's prune cache. The zero value disables the sweeps.
	Faults blockdev.FaultModel
	// NoPrune disables representative crash-state pruning: every crash
	// state is checked against the oracle. This is the cross-check mode —
	// it must produce the identical set of bug verdicts, only slower.
	NoPrune bool
	// ScratchStates constructs every crash state from scratch (fresh
	// snapshot + full log-prefix replay) instead of through the rolling
	// replay cursor. Like NoPrune this is a cross-check mode: identical
	// fingerprints and verdicts, strictly more replayed writes. Excluded
	// from the config fingerprint for the same reason prune mode is —
	// construction strategy never changes verdicts.
	ScratchStates bool
	// PruneCap bounds each prune-cache tier (entries). 0 uses
	// crashmonkey.DefaultPruneCap; negative means unbounded. Eviction is
	// verdict-preserving: an evicted state that recurs is re-checked.
	PruneCap int

	// Shard and NumShards partition the campaign across processes: when
	// NumShards > 1, only workloads whose ACE sequence number satisfies
	// seq mod NumShards == Shard are tested (the residue-class partition
	// of ace.Generator — deterministic, disjoint, union = the full space).
	// With SampleEvery > 1 the partition applies to the sampled
	// subsequence instead, so the classes stay balanced for every (sample,
	// shards) pair; inClass is the rule and says why. Each shard writes
	// its own corpus shard recording its class; MergeStats folds a
	// complete residue system back into one campaign. NumShards of 0 or 1
	// means unsharded.
	Shard     int
	NumShards int

	// Interrupt, when non-nil, requests a graceful early stop: once the
	// channel is closed, generation stops feeding new workloads, in-flight
	// workloads drain and are recorded, corpus shards are checkpointed and
	// closed WITHOUT a completion marker (the shard stays resumable, never
	// mergeable), and RunMatrix returns the partial statistics alongside
	// ErrInterrupted. This is the clean half of crash tolerance: a SIGINT'd
	// campaign loses nothing instead of leaning on torn-tail recovery.
	Interrupt <-chan struct{}

	// OnProgress, when non-nil, receives cumulative progress snapshots
	// (summed across matrix rows) every ProgressEvery while the campaign
	// runs, plus one final snapshot when the worker pool drains. Long
	// sweeps use it for a live states/s / replayed-writes/s / ETA line.
	OnProgress func(Progress)
	// ProgressEvery is the snapshot interval (0 = DefaultProgressEvery).
	ProgressEvery time.Duration

	// CorpusDir, when set, persists per-workload progress to an
	// append-only JSONL shard under this directory (internal/corpus).
	CorpusDir string
	// ProfileLabel names the shard (cosmetic; the shard key always
	// includes the configuration fingerprint). Defaults to "campaign".
	ProfileLabel string
	// Resume loads the corpus shard and skips workloads already recorded,
	// folding their verdicts into the statistics. The shard must have been
	// written by a campaign with the same bounds and testing options.
	Resume bool

	// KnownDBFor, when set, supplies each file system's known-bug database
	// (§5.3): groups matching it are reported as known, not fresh. nil
	// reports every group as fresh.
	KnownDBFor func(fsName string) *report.KnownDB
}

// configFingerprint identifies everything that determines per-workload
// verdicts and sequence numbering, so a corpus shard is only resumed by a
// compatible campaign. Prune mode is deliberately excluded: pruning is
// verdict-preserving, so progress survives toggling it. The shard residue
// class is also excluded — it selects which workloads run, not what any
// workload's verdict is — and lives in corpus.Meta.Shard/NumShards (and the
// shard's file key) instead, which is what lets MergeStats group the shards
// of one campaign by this base fingerprint.
func (cfg *Config) configFingerprint() string {
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 1
	}
	space := cfg.Bounds.Fingerprint()
	if cfg.KV != nil {
		space = cfg.KV.Fingerprint()
	}
	// Write checks always run; the writechecks segment stays so every
	// corpus shard keeps its key.
	fp := fmt.Sprintf("%s|sample=%d|final=%t|writechecks=true|reorder=%d",
		space, sample, cfg.FinalOnly, max(cfg.Reorder, 0))
	// Fault segments are appended only when the axis is enabled, so every
	// pre-fault corpus shard keeps its exact key and stays resumable; when
	// enabled, resume and merge refuse mixed fault sets or sector sizes.
	if cfg.Faults.Enabled() {
		m := cfg.Faults.Canonical()
		fp += fmt.Sprintf("|faults=%s|sector=%d", m, m.SectorSize)
	}
	// The workload-family segment is likewise appended only for the KV
	// family, keeping every file-level corpus shard's key byte-identical to
	// what older builds wrote. The kvace space hash alone would already
	// separate the families; the explicit segment makes the corpus Meta
	// self-describing and gives DiffMeta a knob to name.
	if cfg.KV != nil {
		fp += "|workload=kv"
	}
	return fp
}

// numShards normalizes Config.NumShards: 0 and 1 both mean unsharded.
func (cfg *Config) numShards() int {
	if cfg.NumShards <= 1 {
		return 0
	}
	return cfg.NumShards
}

// DefaultProgressEvery is the default Config.OnProgress interval.
const DefaultProgressEvery = 5 * time.Second

// ErrInterrupted reports a campaign stopped early through Config.Interrupt.
// The returned statistics cover the work finished before the stop; corpus
// shards are checkpointed (every recorded workload is durable) but carry no
// completion marker, so they resume exactly where the interrupt landed.
var ErrInterrupted = errors.New("campaign: interrupted")

// interrupted reports whether the config's interrupt channel has fired.
func (cfg *Config) interrupted() bool {
	if cfg.Interrupt == nil {
		return false
	}
	select {
	case <-cfg.Interrupt:
		return true
	default:
		return false
	}
}

// Progress is one cumulative campaign snapshot, summed across matrix rows.
// Fields are totals since the campaign started; callers derive rates by
// differencing consecutive snapshots.
type Progress struct {
	// Elapsed is the time since the campaign started.
	Elapsed time.Duration
	// Workloads is the number of workloads finished so far: tested,
	// errored, or folded in from a resumed corpus shard.
	Workloads int64
	// States is the number of crash states constructed so far (checkpoint
	// sweep plus reorder and fault sweeps).
	States int64
	// ReplayedWrites is the number of recorded writes replayed so far to
	// construct those states.
	ReplayedWrites int64
}
