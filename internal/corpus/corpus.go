// Package corpus persists campaign progress as an append-only JSONL corpus
// so long-running B3 campaigns can be sharded by profile, checkpointed
// periodically, and resumed after a kill. Each shard is one file named
// after the campaign key (file system + profile/bounds fingerprint); its
// first line is a Meta record binding the shard to the exact workload
// space, and every following line records the verdict of one workload —
// including the findings of each buggy crash state, so a resumed campaign
// reconstructs the same bug groups and totals as an uninterrupted run.
//
// ACE generation is exhaustive and deterministic, so a workload is
// identified by its 1-based sequence number in generation order: a resumed
// campaign replays generation, skips sequence numbers already recorded, and
// folds the recorded outcomes back into its statistics.
//
// Crash robustness: a shard is a Journal, the append-only JSONL core this
// package shares with the fleet ledger. Records are buffered and fsynced
// every FlushEvery appends (a checkpoint). A kill can lose at most the
// unflushed tail and can tear at most the final line; loading drops a torn
// last line and refuses corruption before it, and lost records are simply
// re-tested on resume.
package corpus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrNoMeta marks a shard whose first record is not a meta record, or that
// has no complete record at all — a writer killed before its very first
// fsync. The writer fsyncs the meta line before any workload record, so
// Resume recreates a shard with no complete record.
var ErrNoMeta = errors.New("corpus: missing meta record")

// ErrRecordsAfterDone marks a shard holding workload records directly after
// a completion marker with no intervening Reopen record. A well-behaved
// writer never produces that sequence: Resume explicitly invalidates a live
// marker with a Reopen line before appending anything new, so records right
// after a DoneRecord mean the file was appended to by something other than
// this package (a hand-edit, a concatenation, an older build) and its
// completion status is no longer trustworthy. Loading fails loudly instead
// of silently treating the shard as merely incomplete.
var ErrRecordsAfterDone = errors.New("corpus: workload records follow the completion marker")

// ErrLocked marks a shard (or sibling journal) whose advisory lock is held
// by another live process. Fleet workers use this to recognise a residue
// class still held by a zombie predecessor: the lease is released and
// retried later instead of failing the worker.
var ErrLocked = errors.New("corpus: file is locked by another process")

// FormatVersion is bumped when the record schema changes incompatibly.
const FormatVersion = 1

// DefaultFlushEvery is the default checkpoint interval in records.
const DefaultFlushEvery = 64

// Workload verdicts. A workload that found bugs before erroring keeps
// VerdictBuggy (its reports are real) with Errored set alongside.
const (
	VerdictClean = "clean" // every crash state passed the oracle
	VerdictBuggy = "buggy" // at least one crash state failed
	VerdictError = "error" // the workload errored before any state failed
)

// Meta binds a shard to one campaign configuration. A shard may only be
// resumed by a campaign with an identical Meta (modulo Format).
type Meta struct {
	Format int `json:"format"`
	// FS is the file system under test.
	FS string `json:"fs"`
	// Profile is the human-chosen profile name, if any.
	Profile string `json:"profile,omitempty"`
	// Bounds fingerprints the exact ACE workload space and testing knobs,
	// so a shard cannot be resumed against a different generation order or
	// a configuration that would change recorded verdicts. The campaign
	// layer renders it as pipe-separated segments (workload-space hash
	// first, then knob=value pairs), which DiffMeta exploits to name the
	// offending knob on a mismatch.
	Bounds string `json:"bounds"`
	// Shard and NumShards record the residue class of a partitioned
	// campaign. Zero values mean an unsharded campaign; shards written
	// before these fields load as unsharded. The merge layer folds a
	// complete residue system 0..NumShards-1 back into one campaign.
	Shard     int `json:"shard,omitempty"`
	NumShards int `json:"numShards,omitempty"`
	// Sample records the campaign's sampling stride (0 or 1 = every
	// workload). It defines the partitioned index the residue class is
	// computed over: workload seq = Sample·m belongs to shard
	// m mod NumShards, so shards stay balanced for any (Sample,
	// NumShards) pair.
	Sample int64 `json:"sample,omitempty"`
}

// SampleOrOne returns the recorded sampling stride, normalized.
func (m Meta) SampleOrOne() int64 {
	if m.Sample <= 0 {
		return 1
	}
	return m.Sample
}

// ShardLabel renders the residue-class identity ("2/5", or "" when
// unsharded).
func (m Meta) ShardLabel() string {
	if m.NumShards <= 1 {
		return ""
	}
	return fmt.Sprintf("%d/%d", m.Shard, m.NumShards)
}

// MetaMismatchError reports a shard whose recorded Meta does not match the
// campaign (or merge) trying to consume it. Its message carries both full
// fingerprints plus a knob-by-knob diff, so hand-moved shards and
// mis-configured resumes are self-diagnosing.
type MetaMismatchError struct {
	Path      string
	Got, Want Meta
}

func (e *MetaMismatchError) Error() string {
	return fmt.Sprintf(
		"corpus: shard %s records fs=%q bounds=%q shard=%q format=%d; campaign wants fs=%q bounds=%q shard=%q format=%d (%s)",
		e.Path, e.Got.FS, e.Got.Bounds, e.Got.ShardLabel(), e.Got.Format,
		e.Want.FS, e.Want.Bounds, e.Want.ShardLabel(), FormatVersion,
		DiffMeta(e.Got, e.Want))
}

// DiffMeta names what differs between two shard Metas in knob terms. The
// campaign config fingerprint is pipe-separated — the workload-space hash
// first, then "knob=value" segments — so the diff can name the exact knob
// ("sample: shard has 3, campaign wants 7") instead of leaving the caller
// to eyeball two opaque strings.
func DiffMeta(got, want Meta) string {
	var diffs []string
	if got.FS != want.FS {
		diffs = append(diffs, fmt.Sprintf("fs: shard has %q, campaign wants %q", got.FS, want.FS))
	}
	diffs = append(diffs, diffBounds(got.Bounds, want.Bounds)...)
	if got.Shard != want.Shard || got.NumShards != want.NumShards {
		diffs = append(diffs, fmt.Sprintf("shard: shard file is %s, campaign wants %s",
			orUnsharded(got.ShardLabel()), orUnsharded(want.ShardLabel())))
	}
	if got.Format != FormatVersion {
		diffs = append(diffs, fmt.Sprintf("format: shard has %d, this build writes %d", got.Format, FormatVersion))
	}
	if len(diffs) == 0 {
		return "identical"
	}
	return strings.Join(diffs, "; ")
}

func orUnsharded(label string) string {
	if label == "" {
		return "unsharded"
	}
	return label
}

// diffBounds splits two fingerprint strings into their pipe-separated
// segments and names each differing one. Segments of the form "k=v" are
// knobs; a bare segment is the workload-space hash.
func diffBounds(got, want string) []string {
	if got == want {
		return nil
	}
	type seg struct{ key, val string }
	parse := func(s string) []seg {
		var out []seg
		for _, part := range strings.Split(s, "|") {
			if k, v, ok := strings.Cut(part, "="); ok {
				out = append(out, seg{k, v})
			} else {
				out = append(out, seg{"workload space", part})
			}
		}
		return out
	}
	gs, ws := parse(got), parse(want)
	if len(gs) != len(ws) {
		// Different fingerprint layouts (e.g. a shard written by an older
		// build): the full strings in the message are all we can say.
		return []string{"fingerprint layouts differ"}
	}
	var diffs []string
	for i := range gs {
		if gs[i].key != ws[i].key {
			return []string{"fingerprint layouts differ"}
		}
		if gs[i].val != ws[i].val {
			diffs = append(diffs, fmt.Sprintf("%s: shard has %s, campaign wants %s",
				gs[i].key, gs[i].val, ws[i].val))
		}
	}
	return diffs
}

// Finding mirrors crashmonkey.Finding for persistence. Consequence is the
// numeric bugs.Consequence value.
type Finding struct {
	Consequence uint8  `json:"c"`
	Path        string `json:"p"`
	Detail      string `json:"d,omitempty"`
}

// ReportRecord is one buggy crash state of a workload.
type ReportRecord struct {
	// Checkpoint is the 1-based persistence point that was crashed at.
	Checkpoint int `json:"cp"`
	// Primary is the numeric consequence of the most severe finding (the
	// report-group key).
	Primary uint8 `json:"primary"`
	// Skeleton is the grouping skeleton for this crash point (the workload
	// prefix up to the crashed checkpoint).
	Skeleton string    `json:"skeleton,omitempty"`
	Findings []Finding `json:"findings"`
}

// WorkloadRecord is the outcome of one tested workload.
type WorkloadRecord struct {
	// Seq is the workload's 1-based position in ACE generation order.
	Seq int64 `json:"seq"`
	// ID is the generated workload ID ("ace-<seq>").
	ID      string `json:"id"`
	Verdict string `json:"verdict"`
	// Errored marks a workload whose testing stopped on an error; set
	// together with VerdictBuggy when earlier crash states already failed.
	Errored bool `json:"errored,omitempty"`
	// States, Checked, Pruned are the crash-state counts for the workload:
	// total states constructed, oracle checks actually run, and checks
	// skipped by representative pruning.
	States  int `json:"states"`
	Checked int `json:"checked"`
	Pruned  int `json:"pruned"`
	// PrunedTree is the share of Pruned served by the tree tier (identical
	// recovered tree); the rest matched the disk tier (identical device
	// bytes). Additive field: shards written before it load with zero, so
	// their prunes count as disk-tier.
	PrunedTree int `json:"prunedtree,omitempty"`
	// RStates, RChecked, RPruned, RBroken are the bounded-reordering sweep
	// totals (zero, and omitted, when the campaign ran with Reorder off):
	// reorder states enumerated, recoveries run, verdicts reused from the
	// prune cache, and states that neither mounted nor repaired. Additive
	// fields: shards written before them load with zeros.
	RStates  int `json:"rstates,omitempty"`
	RChecked int `json:"rchecked,omitempty"`
	RPruned  int `json:"rpruned,omitempty"`
	RBroken  int `json:"rbroken,omitempty"`
	// RClassSkip and RCommuteSkip split out the reorder states never
	// constructed: enumeration-time class hits and drop-sets skipped as
	// identical to an earlier canonical representative. Both are included
	// in RStates. Additive fields: shards written before them load with
	// zeros (their skips are inside RPruned/RChecked instead).
	RClassSkip   int `json:"rclassskip,omitempty"`
	RCommuteSkip int `json:"rcommuteskip,omitempty"`
	// Replayed is the number of recorded writes replayed to construct the
	// workload's crash states (checkpoint sweep plus reorder sweep). It is
	// a deterministic function of the workload and the construction engine;
	// resume folds it into the campaign's replay-cost accounting. Additive
	// field: shards written before it load with zero.
	Replayed int64 `json:"replayed,omitempty"`
	// Faults holds the per-fault-kind sweep totals (empty, and omitted,
	// when the campaign ran with no FaultModel). Additive field: shards
	// written before it load with no entries.
	Faults []FaultKindCounts `json:"faults,omitempty"`
	// KV holds the application-oracle classification totals of a KV
	// workload's crash states (nil, and omitted, for file-level
	// workloads). Additive field: shards written before it load with nil.
	KV *KVCounts `json:"kv,omitempty"`
	// Skeleton and Workload carry what report grouping needs; recorded
	// only for buggy workloads to keep shards small.
	Skeleton string         `json:"skeleton,omitempty"`
	Workload string         `json:"workload,omitempty"`
	Reports  []ReportRecord `json:"reports,omitempty"`
}

// FaultKindCounts is the accounting of one fault kind's sweep of one
// workload, mirroring the reorder counters: states enumerated, recoveries
// run, verdicts reused from the prune cache, states never constructed
// thanks to an enumeration-time class hit, and states that neither mounted
// nor repaired.
type FaultKindCounts struct {
	// Kind is the fault kind's canonical name ("torn", "corrupt",
	// "misdirect").
	Kind    string `json:"kind"`
	States  int    `json:"states"`
	Checked int    `json:"checked,omitempty"`
	Pruned  int    `json:"pruned,omitempty"`
	// ClassSkip is an additive field: shards written before it load with
	// zero (their class hits are inside Pruned/Checked instead).
	ClassSkip int `json:"classskip,omitempty"`
	Broken    int `json:"broken,omitempty"`
}

// KVCounts is one KV workload's application-oracle classification: every
// crash state the application could recover on (checkpoint, reorder, and
// fault sweeps combined) counted by verdict class. FS-level broken states
// render no application verdict and are excluded. The totals are a
// deterministic function of the workload — verdicts never depend on prune
// caches — so they are shard-stable and merge exactly.
type KVCounts struct {
	Legal        int64 `json:"legal,omitempty"`
	LostAck      int64 `json:"lostack,omitempty"`
	Resurrected  int64 `json:"resurrected,omitempty"`
	Unreplayable int64 `json:"unreplayable,omitempty"`
}

// DoneRecord marks a campaign (shard) that ran its generation and testing
// to completion. The merge layer refuses shards without one: folding a
// half-finished shard would silently under-report the campaign. Appended
// on every clean campaign finish, so a resumed-to-completion shard carries
// one too (the last wins on load).
type DoneRecord struct {
	// Generated is the campaign's full enumeration count (the workload
	// space is enumerated entirely even by sharded and sampled runs, so
	// every complete shard of one campaign records the same number).
	Generated int64 `json:"generated"`
	// ElapsedNS is the shard's wall-clock in nanoseconds (informational;
	// merge reports the slowest shard as the sharded wall-clock).
	ElapsedNS int64 `json:"elapsedNs,omitempty"`
}

// ReopenRecord explicitly invalidates the shard's completion marker: Resume
// appends one before any new workload record when it reopens a shard whose
// campaign had already finished (e.g. a -max bound raised), so "records
// after a DoneRecord" is either announced — and the shard cleanly reads as
// in-progress again — or an ErrRecordsAfterDone corruption.
type ReopenRecord struct{}

// line is the JSONL envelope: exactly one field is set per line.
type line struct {
	Meta     *Meta           `json:"meta,omitempty"`
	Workload *WorkloadRecord `json:"workload,omitempty"`
	Done     *DoneRecord     `json:"done,omitempty"`
	Reopen   *ReopenRecord   `json:"reopen,omitempty"`
}

// ShardPath returns the file a campaign key is stored under.
func ShardPath(dir, key string) string {
	return filepath.Join(dir, sanitizeKey(key)+".jsonl")
}

// sanitizeKey maps a campaign key to a safe file stem.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, key)
}

// Shard is an open, append-only corpus shard: a Journal bound by its Meta
// record, holding workload records and completion markers. FlushEvery,
// Checkpoint, Close and Path are the Journal's.
type Shard struct{ *Journal }

// openShard opens the shard journal for key, binding a fresh one to meta.
func openShard(dir, key string, meta Meta, apply func(*line) error) (*Shard, error) {
	meta.Format = FormatVersion
	j, err := OpenJournal(ShardPath(dir, key), line{Meta: &meta}, apply)
	if err != nil {
		return nil, err
	}
	return &Shard{j}, nil
}

// Create starts a fresh shard for the key, truncating any previous run.
// The shard is flock-guarded: a second campaign on the same key fails fast
// instead of clobbering a live writer.
func Create(dir, key string, meta Meta) (*Shard, error) {
	return openShard(dir, key, meta, nil)
}

// Resume reopens an existing shard for appending and returns its recorded
// workloads keyed by sequence number; a later duplicate of a sequence
// number supersedes the original. The shard's Meta must match meta. A
// missing shard — or one killed before its meta record reached disk — is
// created fresh (resuming a never-started campaign is a plain start). A
// torn trailing line from a kill is dropped, and truncated away before
// appending, so new records never land on partial bytes.
func Resume(dir, key string, meta Meta) (*Shard, map[int64]*WorkloadRecord, error) {
	loaded := &LoadedShard{Path: ShardPath(dir, key)}
	s, err := openShard(dir, key, meta, func(l *line) error {
		if err := loaded.apply(l); err != nil {
			return err
		}
		if got := l.Meta; got != nil && (got.FS != meta.FS || got.Bounds != meta.Bounds ||
			got.Format != FormatVersion || got.Shard != meta.Shard || got.NumShards != meta.NumShards) {
			return &MetaMismatchError{Path: loaded.Path, Got: *got, Want: meta}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	done := make(map[int64]*WorkloadRecord, len(loaded.Records))
	for _, r := range loaded.Records {
		done[r.Seq] = r
	}
	if loaded.Done != nil {
		// The campaign had finished; resuming may append past its recorded
		// end. Announce that durably before any new record so the marker is
		// explicitly invalidated (ErrRecordsAfterDone guards the unannounced
		// case). A clean re-finish appends a fresh marker, and a torn Reopen
		// line simply leaves the shard complete (nothing after it can have
		// reached disk either).
		err := s.Journal.Append(line{Reopen: &ReopenRecord{}})
		if err == nil {
			err = s.Checkpoint()
		}
		if err != nil {
			s.Close()
			return nil, nil, err
		}
	}
	return s, done, nil
}

// LoadedShard is one shard corpus read from disk: its binding Meta, every
// workload record, and the completion marker (nil for a shard whose
// campaign never finished).
type LoadedShard struct {
	Path    string
	Meta    *Meta
	Records []*WorkloadRecord
	// Done is the last completion marker, nil if the campaign was killed
	// (or is still running) — such a shard is resumable but not mergeable.
	Done *DoneRecord
}

// LoadShard reads a shard from disk without locking it. A torn final line
// (a crashed writer) is ignored; corruption before it is an error.
func LoadShard(path string) (*LoadedShard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &LoadedShard{Path: path}
	if _, err := replay(path, data, s.apply); err != nil {
		return nil, err
	}
	if s.Meta == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoMeta, path)
	}
	return s, nil
}

// LoadDir loads every ".jsonl" shard directly under dir, sorted by file
// name. It is the read side of a sharded (or multi-FS) campaign directory;
// campaign.MergeStats folds the result back into one set of statistics.
func LoadDir(dir string) ([]*LoadedShard, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var shards []*LoadedShard
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		s, err := LoadShard(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		shards = append(shards, s)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("corpus: %s holds no .jsonl shard", dir)
	}
	return shards, nil
}

// apply folds one replayed record into the shard view.
func (s *LoadedShard) apply(l *line) error {
	switch {
	case l.Meta != nil:
		if s.Meta != nil {
			return fmt.Errorf("corpus: %s: duplicate meta record", s.Path)
		}
		s.Meta = l.Meta
	case s.Meta == nil:
		return fmt.Errorf("%w: %s", ErrNoMeta, s.Path)
	case l.Workload != nil:
		// A workload record directly after a completion marker would make
		// the marker silently stale: our own writers always announce the
		// reopening (Resume appends a Reopen line first), so fail loudly
		// instead of guessing at the shard's completion status.
		if s.Done != nil {
			return fmt.Errorf("%w: %s holds workload seq %d after its completion marker",
				ErrRecordsAfterDone, s.Path, l.Workload.Seq)
		}
		s.Records = append(s.Records, l.Workload)
	case l.Reopen != nil:
		// The shard was deliberately resumed past its recorded end (e.g.
		// with a higher workload cap): the completion marker no longer
		// covers what follows.
		s.Done = nil
	case l.Done != nil:
		s.Done = l.Done
	}
	return nil
}

// Append records one workload outcome. Safe for concurrent use.
func (s *Shard) Append(rec *WorkloadRecord) error {
	return s.Journal.Append(line{Workload: rec})
}

// AppendDone records the campaign's completion marker. Call once after the
// last workload record; the merge layer treats shards without one as
// incomplete and refuses to fold them.
func (s *Shard) AppendDone(d DoneRecord) error {
	return s.Journal.Append(line{Done: &d})
}

// Kill closes the shard's underlying file without flushing buffered
// records, simulating a writer dying mid-campaign: every subsequent Append
// or Checkpoint fails. It exists for crash-injection tests.
func (s *Shard) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Close()
	// Shrink the buffer so the very next Append flushes and observes the
	// closed file instead of buffering silently until the next checkpoint.
	s.FlushEvery = 1
	s.pending = 1
}
