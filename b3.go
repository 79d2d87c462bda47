package b3

import (
	"time"

	"b3/internal/ace"
	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/campaign"
	"b3/internal/crashmonkey"
	"b3/internal/filesys"
	"b3/internal/fsmake"
	"b3/internal/kvace"
	"b3/internal/report"
	"b3/internal/study"
	"b3/internal/workload"
	"b3/internal/xfstests"
)

// Re-exported core types.
type (
	// FileSystem is a file system under test.
	FileSystem = filesys.FileSystem
	// MountedFS is the POSIX-like view CrashMonkey drives.
	MountedFS = filesys.MountedFS
	// Workload is an executable operation sequence.
	Workload = workload.Workload
	// Monkey is the CrashMonkey harness.
	Monkey = crashmonkey.Monkey
	// Result is the outcome of testing one crash state.
	Result = crashmonkey.Result
	// Finding is one detected crash-consistency violation.
	Finding = crashmonkey.Finding
	// Bounds is an ACE exploration space.
	Bounds = ace.Bounds
	// CampaignStats summarises a testing campaign.
	CampaignStats = campaign.Stats
	// CampaignMatrix summarises a multi-file-system campaign: per-FS stats
	// plus a merged cross-FS report table.
	CampaignMatrix = campaign.Matrix
	// CampaignProgress is one cumulative live-progress snapshot delivered
	// to Campaign.OnProgress while a campaign runs.
	CampaignProgress = campaign.Progress
	// CampaignMerge is the outcome of folding a sharded campaign's corpus
	// directory: one merged row per file system.
	CampaignMerge = campaign.Merge
	// CampaignMergeRow is one merged campaign: folded Stats plus shard
	// bookkeeping.
	CampaignMergeRow = campaign.MergeRow
	// CampaignTier is a named campaign preset (quick, nightly) shared by
	// CI, the fleet coordinator, and the CLI.
	CampaignTier = campaign.Tier
	// Version is a simulated kernel version.
	Version = bugs.Version
	// Bug is a catalogued crash-consistency bug mechanism.
	Bug = bugs.Bug
	// Group is a deduplicated set of bug reports (Figure 5).
	Group = report.Group
	// ProfileName selects a Table 4 workload set.
	ProfileName = ace.ProfileName
	// FaultKind is one orthogonal fault-injection axis (torn, corrupt,
	// misdirect).
	FaultKind = blockdev.FaultKind
	// FaultModel selects which fault axes a campaign sweeps and the torn
	// sector granularity.
	FaultModel = blockdev.FaultModel
)

// Fault-injection axes (the orthogonal counterpart to bounded reordering):
// torn writes land a sector-granularity prefix of one block write, corrupt
// writes land zeroed or bit-flipped, misdirected writes land on the wrong
// in-range block.
const (
	FaultTorn      = blockdev.FaultTorn
	FaultCorrupt   = blockdev.FaultCorrupt
	FaultMisdirect = blockdev.FaultMisdirect
)

// ParseFaultKinds parses a comma-separated fault-kind list ("torn,corrupt,
// misdirect") into canonical deduplicated order, as the -faults flag does.
func ParseFaultKinds(s string) ([]FaultKind, error) { return blockdev.ParseFaultKinds(s) }

// Profiles lists the Table 4 workload sets in paper order.
func Profiles() []ProfileName { return ace.Profiles() }

// ACE profile names (Table 4).
const (
	Seq1         = ace.ProfileSeq1
	Seq2         = ace.ProfileSeq2
	Seq3Data     = ace.ProfileSeq3Data
	Seq3Metadata = ace.ProfileSeq3Metadata
	Seq3Nested   = ace.ProfileSeq3Nested
)

// FSNames lists the available file systems under test.
func FSNames() []string { return fsmake.Names() }

// FSConfig selects the bug configuration of a file system under test.
type FSConfig struct {
	// Version simulates a kernel era (zero = 4.16). The bug mechanisms
	// live at that version are active.
	Version Version
	// Fixed disables every bug mechanism.
	Fixed bool
	// NewBugsOnly activates exactly the Table 5 mechanisms (the paper's
	// campaign configuration).
	NewBugsOnly bool
	// Bugs, when non-nil, is the exact active mechanism set.
	Bugs map[string]bool
}

// CampaignConfig is the configuration the paper's two-day campaign models.
func CampaignConfig() FSConfig { return FSConfig{NewBugsOnly: true} }

// FixedConfig is a fully repaired file system (harness soundness baseline).
func FixedConfig() FSConfig { return FSConfig{Fixed: true} }

// AtKernel simulates the given kernel version ("3.13", "4.4", ...).
func AtKernel(version string) (FSConfig, error) {
	v, err := bugs.ParseVersion(version)
	if err != nil {
		return FSConfig{}, err
	}
	return FSConfig{Version: v}, nil
}

// NewFS constructs a file system under test by name ("logfs", "journalfs",
// "f2fsim", "fscqsim").
func NewFS(name string, cfg FSConfig) (FileSystem, error) {
	switch {
	case cfg.Fixed:
		return fsmake.Fixed(name)
	case cfg.NewBugsOnly:
		return fsmake.NewBugsOnly(name)
	case cfg.Bugs != nil:
		return fsmake.New(name, cfg.Version, cfg.Bugs)
	default:
		ver := cfg.Version
		if ver.IsZero() {
			ver = bugs.Latest
		}
		return fsmake.AtVersion(name, ver)
	}
}

// ParseWorkload parses the textual workload language (see package
// documentation for the syntax).
func ParseWorkload(id, text string) (*Workload, error) {
	return workload.Parse(id, text)
}

// Test runs one workload through CrashMonkey against fs, crashing at the
// final persistence point and checking the recovered state.
func Test(fs FileSystem, text string) (*Result, error) {
	w, err := workload.Parse("adhoc", text)
	if err != nil {
		return nil, err
	}
	return (&crashmonkey.Monkey{FS: fs}).Run(w)
}

// TestWorkload is Test for a pre-parsed workload.
func TestWorkload(fs FileSystem, w *Workload) (*Result, error) {
	return (&crashmonkey.Monkey{FS: fs}).Run(w)
}

// Campaign configures a full B3 run: exhaustive generation + testing.
type Campaign struct {
	// FS is the file system under test (ignored by RunCampaignMatrix,
	// which takes its row list explicitly).
	FS FileSystem
	// Profile selects a Table 4 workload set, or — with a "kv-" name
	// (kv-seq1, kv-seq2, ...) — a bounded application-level KV workload
	// space checked through the expected-state oracle; Bounds overrides it.
	Profile ace.ProfileName
	// Bounds, when non-nil, is the exact ACE exploration space to sweep
	// instead of a named profile.
	Bounds *Bounds
	// Workers sets the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// MaxWorkloads stops generation after this many workloads have been
	// enumerated (0 = the full space). A bounded campaign still writes a
	// mergeable corpus, but bounded *shards* stop at slightly different
	// enumeration points and cannot be merged; prefer SampleEvery for
	// cheap sharded sweeps.
	MaxWorkloads int64
	// SampleEvery tests only every n-th workload (1 or 0 = all). Every
	// sequence number is still walked, so Generated counts stay exact, but
	// only the tested workloads are built.
	SampleEvery int64
	// Shard and NumShards partition the campaign across processes: shard i
	// of n tests exactly the workloads whose deterministic ACE sequence
	// number satisfies seq mod n == i (with SampleEvery s > 1, workload
	// s·m belongs to shard m mod n, so the classes stay balanced for any
	// (s, n) pair). Run all n residue classes (same flags, same CorpusDir)
	// and fold them with MergeCampaignCorpus; the merged totals and bug
	// groups are identical to the unsharded run. NumShards of 0 or 1
	// means unsharded.
	Shard     int
	NumShards int
	// Interrupt, when non-nil, requests a graceful early stop once
	// closed: generation halts, in-flight workloads drain and are
	// recorded, corpus shards are checkpointed and closed without a
	// completion marker, and the run returns its partial statistics
	// alongside ErrCampaignInterrupted. This is how SIGINT becomes a
	// resumable checkpoint instead of a torn tail.
	Interrupt <-chan struct{}
	// OnProgress, when non-nil, receives cumulative progress snapshots
	// every ProgressEvery while the campaign runs (plus a final one), so
	// long sweeps can print a live states/s / replayed-writes/s line.
	OnProgress func(CampaignProgress)
	// ProgressEvery is the OnProgress interval (0 = every 5s).
	ProgressEvery time.Duration
	// DedupKnown seeds the §5.3 known-bug database from the studied-bug
	// corpus, so only new bugs are reported.
	DedupKnown bool
	// FinalOnly tests only the final persistence point of each workload
	// (the paper's §5.3 strategy); the default crash-tests every
	// persistence point with representative pruning.
	FinalOnly bool
	// Reorder, when positive, additionally sweeps every workload's
	// bounded-reordering crash states at that bound (the §4.4 extension):
	// in-order write prefixes plus the in-flight IO epoch with up to
	// Reorder writes dropped, judged for recoverability and deduplicated
	// through the prune cache. 0 disables the sweep.
	Reorder int
	// Faults, when enabled (non-empty Kinds), additionally sweeps every
	// workload's fault-injection crash states — the orthogonal axis to
	// Reorder: torn, corrupted, and misdirected writes, each an exactly
	// counted deterministic enumeration judged for recoverability through
	// the same prune cache (verdicts salted per kind). SectorSize sets the
	// torn granularity (0 = 512 bytes; must divide the 4096-byte block).
	Faults FaultModel
	// NoPrune disables representative crash-state pruning — the
	// cross-check mode: identical bug verdicts, every state checked.
	NoPrune bool
	// ScratchStates constructs every crash state from scratch instead of
	// through the incremental rolling replay cursor — the construction
	// cross-check mode: identical fingerprints and verdicts, strictly more
	// replayed writes.
	ScratchStates bool
	// NoClassPrune disables enumeration-time class pruning (every state is
	// constructed even when its fingerprint was already judged) — the
	// cross-check mode for the pre-construction prune: identical verdicts,
	// strictly more constructed states.
	NoClassPrune bool
	// NoCommutePrune disables commutativity pruning of reorder drop-sets —
	// the cross-check mode for the enumerator's canonical-form skip:
	// identical verdicts and reports, strictly more constructed states.
	NoCommutePrune bool
	// PruneCap bounds each prune-cache tier in entries (0 = the default
	// cap, negative = unbounded). Campaigns whose distinct-state count
	// exceeds the cap evict LRU entries and transparently re-check them.
	PruneCap int
	// CorpusDir persists per-workload progress to an append-only JSONL
	// shard under this directory; Resume skips workloads already recorded
	// there, so a killed campaign continues where it stopped. Sharded
	// campaigns write one corpus shard per residue class under the same
	// directory, which is what MergeCampaignCorpus folds back together.
	CorpusDir string
	// Resume loads the corpus shard matching this exact configuration
	// (bounds, sampling, strategy, and shard identity are all
	// fingerprinted) and folds its recorded verdicts back in instead of
	// re-testing. Requires CorpusDir.
	Resume bool
}

// RunCampaign executes the campaign and returns its statistics.
func RunCampaign(c Campaign) (*CampaignStats, error) {
	cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	return campaign.Run(cfg)
}

// RunCampaignMatrix executes one campaign configuration across several file
// systems at once, sharing a single worker pool. c.FS is ignored; each
// entry of fss becomes one row of the matrix with its own statistics, prune
// cache, and (when CorpusDir is set) corpus shard.
func RunCampaignMatrix(c Campaign, fss []FileSystem) (*CampaignMatrix, error) {
	cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	return campaign.RunMatrix(cfg, fss)
}

// ErrCampaignInterrupted reports a campaign stopped early through
// Campaign.Interrupt; the partial statistics returned alongside it are
// checkpointed (with CorpusDir) and resumable.
var ErrCampaignInterrupted = campaign.ErrInterrupted

// LookupCampaignTier resolves a tier by name.
func LookupCampaignTier(name string) (CampaignTier, error) { return campaign.LookupTier(name) }

// MergeCampaignCorpus folds a directory of completed campaign corpus
// shards — the residue classes of a sharded campaign, across any number of
// file systems — into one merged report, without re-running anything. The
// merged totals, bug groups, and reorder/replay counters are identical to
// the unsharded campaign's. Every residue class must be present and
// complete; dedupKnown splits merged groups against the §5.3 known-bug
// database (KnownBugDB), matching a campaign run with DedupKnown.
func MergeCampaignCorpus(dir string, dedupKnown bool) (*CampaignMerge, error) {
	if dedupKnown {
		return campaign.MergeDir(dir, KnownBugDB)
	}
	return campaign.MergeDir(dir, nil)
}

// config lowers the facade Campaign into the campaign package's Config.
func (c Campaign) config() (campaign.Config, error) {
	bounds := ace.Default(1)
	label := "campaign"
	var kv *kvace.Bounds
	if c.Bounds != nil {
		bounds = *c.Bounds
	} else if c.Profile != "" {
		var err error
		if bounds, kv, err = campaign.ProfileSpace(c.Profile); err != nil {
			return campaign.Config{}, err
		}
		label = string(c.Profile)
	}
	cfg := campaign.Config{
		FS:             c.FS,
		Bounds:         bounds,
		KV:             kv,
		Workers:        c.Workers,
		MaxWorkloads:   c.MaxWorkloads,
		SampleEvery:    c.SampleEvery,
		Shard:          c.Shard,
		NumShards:      c.NumShards,
		Interrupt:      c.Interrupt,
		OnProgress:     c.OnProgress,
		ProgressEvery:  c.ProgressEvery,
		FinalOnly:      c.FinalOnly,
		Reorder:        c.Reorder,
		Faults:         c.Faults,
		NoPrune:        c.NoPrune,
		ScratchStates:  c.ScratchStates,
		NoClassPrune:   c.NoClassPrune,
		NoCommutePrune: c.NoCommutePrune,
		PruneCap:       c.PruneCap,
		CorpusDir:      c.CorpusDir,
		ProfileLabel:   label,
		Resume:         c.Resume,
	}
	if c.DedupKnown {
		cfg.KnownDBFor = KnownBugDB
	}
	return cfg, nil
}

// KnownBugDB builds the §5.3 known-bug database for one file system from
// the studied-bug corpus: each reproduced bug contributes its skeleton and
// consequence.
func KnownBugDB(fsName string) *report.KnownDB {
	db := report.NewKnownDB()
	for _, entry := range study.Reproduced() {
		for _, variant := range entry.Variants {
			if variant.FS != fsName {
				continue
			}
			w, err := workload.Parse(entry.ID, entry.Text)
			if err != nil {
				continue
			}
			for _, cons := range entry.Expect {
				db.Add(w.Skeleton(), cons, entry.ID)
			}
		}
	}
	return db
}

// DefaultBounds returns the Table 3 bounds for a sequence length.
func DefaultBounds(seqLen int) Bounds { return ace.Default(seqLen) }

// ProfileBounds returns the bounds of a Table 4 profile.
func ProfileBounds(name ace.ProfileName) (Bounds, error) { return ace.Profile(name) }

// IsKVProfile reports whether a profile name selects the application-level
// KV workload family (kv-seq1, kv-seq2, ...) instead of an ACE file space.
func IsKVProfile(name string) bool { return kvace.IsProfile(name) }

// CountWorkloads returns the size of the bounded workload space (ACE)
// without building any workload.
func CountWorkloads(b Bounds) (int64, error) { return ace.New(b).Count() }

// GenerateWorkloads streams the bounded workload space to fn (ACE).
func GenerateWorkloads(b Bounds, fn func(*Workload) bool) (int64, error) {
	return ace.New(b).Generate(fn)
}

// Table1 renders the paper's Table 1 from the study corpus.
func Table1() string { return study.Table1() }

// Table2 renders the paper's Table 2.
func Table2() string { return study.Table2() }

// Table5 renders the paper's Table 5; found marks bug IDs discovered by a
// campaign (nil = mark all).
func Table5(found map[string]bool) string { return study.Table5(found) }

// AllBugs returns the full bug-mechanism catalogue.
func AllBugs() []Bug { return bugs.All() }

// NewBugs returns the Table 5 catalogue entries.
func NewBugs() []Bug { return bugs.NewBugs() }

// StudyCorpus returns the appendix workload corpus.
func StudyCorpus() []study.Entry { return study.All() }

// RegressionBaseline runs the xfstests-style regression suite (§2) against
// fs and reports how many of its canned tests flag bugs.
func RegressionBaseline(fs FileSystem) (ran int, failures []string, err error) {
	suite, err := xfstests.RegressionSuite()
	if err != nil {
		return 0, nil, err
	}
	res, err := suite.Run(fs)
	if err != nil {
		return 0, nil, err
	}
	return res.Ran, res.Failures, nil
}

// Latest is the newest simulated kernel (4.16, Table 1).
var Latest = bugs.Latest
