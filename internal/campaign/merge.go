// Campaign merging: fold the corpus shards of a sharded (or multi-FS)
// campaign back into one set of statistics and one report, without
// re-running anything. The shard partition is a residue system over the
// deterministic ACE sequence numbers, so the union of a complete system
// 0..n-1 is provably the unsharded campaign: every stable counter (totals,
// bug groups, reorder states) merges to the identical value, which
// TestShardUnionMatchesUnsharded enforces. Counters that depend on shared
// prune-cache state — the checked/pruned/class-skipped split, and replayed
// writes once class pruning skips construction on cache hits — are not
// stable across process boundaries and are reported as the sum without an
// equality claim.
package campaign

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"time"

	"b3/internal/blockdev"
	"b3/internal/corpus"
	"b3/internal/report"
)

// MergeRow is one merged campaign (one file system × one configuration):
// the folded Stats plus the shard bookkeeping behind them.
type MergeRow struct {
	// Stats carries the merged counters and bug groups. Generated, Tested,
	// Failed, Errors, StatesTotal, ReorderStates, ReorderBroken, and Groups
	// are identical to an unsharded run of the same configuration;
	// StatesChecked/StatesPruned (and the reorder split) are sums whose
	// split depends on per-process prune caches, and ReplayedWrites shares
	// that fate unless every state is built (ScratchStates or NoPrune): an
	// incremental class hit skips construction, so the replay count tracks
	// the cache contents.
	// Elapsed is the slowest shard's wall-clock (shards run concurrently).
	// Shard/NumShards stay zero: a merged row covers the whole sweep, not
	// a residue class.
	Stats *Stats
	// Profile is the recorded human-chosen profile label.
	Profile string
	// NumShards is the finest modulus in the merged residue system (0 for
	// an unsharded corpus): the -shard i/n denominator for a uniform
	// partition, the deepest split for a refined (work-stolen) one.
	NumShards int
	// ShardsMerged is how many corpus shards folded into this row (1 for
	// an unsharded corpus, NumShards for a complete residue system).
	ShardsMerged int
	// TotalShardTime sums every shard's wall-clock — the aggregate compute
	// the partition spread across processes.
	TotalShardTime time.Duration
}

// Merge is the outcome of folding a corpus directory: one row per
// (file system, campaign configuration), sorted by file system then
// profile — a directory may legitimately hold several profiles per file
// system (b3 -find-new-bugs writes one shard per (fs, profile) pair).
type Merge struct {
	Rows []*MergeRow
}

// ByFS returns the first merged row for one file system (nil if absent).
func (m *Merge) ByFS(name string) *MergeRow {
	for _, r := range m.Rows {
		if r.Stats.FSName == name {
			return r
		}
	}
	return nil
}

// MergeDir loads every corpus shard under dir and merges them; see
// MergeStats. knownDBFor may be nil (no known-bug deduplication).
func MergeDir(dir string, knownDBFor func(fsName string) *report.KnownDB) (*Merge, error) {
	shards, err := corpus.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return MergeStats(shards, knownDBFor)
}

// MergeStats folds loaded corpus shards into per-(file system,
// configuration) campaign statistics. Shards are grouped by (file system,
// config fingerprint); each group must be an exact residue cover — every
// shard marked done, classes pairwise disjoint with densities summing to
// one (the classic 0..n-1 system, or a refined mixed-modulus system after
// fleet work-stealing splits) — and every record's sequence number must
// lie in its shard's residue class, so a merged row is provably the union
// of one partitioned campaign and nothing else. Several profiles per file system
// merge into separate rows (a -find-new-bugs corpus holds one shard per
// (fs, profile) pair); two *same-profile* configurations for one file
// system are misuse — the totals would be ambiguous — and are refused
// with a knob-naming diff (corpus.DiffMeta). knownDBFor, when non-nil,
// supplies the §5.3 known-bug database used to split merged groups.
func MergeStats(shards []*corpus.LoadedShard, knownDBFor func(fsName string) *report.KnownDB) (*Merge, error) {
	type groupKey struct{ fs, bounds string }
	groups := map[groupKey][]*corpus.LoadedShard{}
	for _, s := range shards {
		key := groupKey{s.Meta.FS, s.Meta.Bounds}
		groups[key] = append(groups[key], s)
	}
	type labelKey struct{ fs, profile string }
	byLabel := map[labelKey]groupKey{}
	for key := range groups {
		label := labelKey{key.fs, groups[key][0].Meta.Profile}
		if prev, ok := byLabel[label]; ok {
			a, b := groups[prev][0], groups[key][0]
			return nil, fmt.Errorf(
				"campaign: merge: %s and %s are differently-configured %q campaigns on %s (%s)",
				a.Path, b.Path, label.profile, label.fs, corpus.DiffMeta(*a.Meta, *b.Meta))
		}
		byLabel[label] = key
	}

	m := &Merge{}
	for _, group := range groups {
		row, err := mergeGroup(group, knownDBFor)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, row)
	}
	sort.Slice(m.Rows, func(i, j int) bool {
		if a, b := m.Rows[i].Stats.FSName, m.Rows[j].Stats.FSName; a != b {
			return a < b
		}
		return m.Rows[i].Profile < m.Rows[j].Profile
	})
	return m, nil
}

// residueClass is one shard's slice of the sampled workload index space:
// indices m with m ≡ r (mod n). An unsharded corpus is the whole space,
// (0, 1).
type residueClass struct{ r, n int }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// overlaps reports whether two residue classes intersect: r₁ ≡ r₂
// (mod gcd(n₁, n₂)) by the Chinese remainder theorem.
func (c residueClass) overlaps(o residueClass) bool {
	g := gcd(c.n, o.n)
	return c.r%g == o.r%g
}

// checkResidueSystem verifies the shards form an exact cover of the
// sampled index space: pairwise-disjoint residue classes whose densities
// Σ 1/nᵢ sum to one. The uniform case (all moduli equal) is the classic
// complete system 0..n-1; mixed moduli arise when the fleet coordinator
// splits an abandoned class (r, n) into (r, 2n) ∪ (r+n, 2n) for
// work-stealing — disjointness plus full density is exactly the condition
// under which the union is provably one whole enumeration, no matter how
// many times classes were refined.
func checkResidueSystem(shards []*corpus.LoadedShard) error {
	classes := make([]residueClass, len(shards))
	uniform := true
	for i, s := range shards {
		n := s.Meta.NumShards
		if n <= 1 {
			n = 1
		}
		if n > 1 && (s.Meta.Shard < 0 || s.Meta.Shard >= n) {
			// A hand-moved or corrupted shard file; without this check an
			// out-of-range (possibly record-free) shard could stand in for
			// a missing residue class by density alone.
			return fmt.Errorf("campaign: merge: %s records residue class %s outside 0..%d",
				s.Path, s.Meta.ShardLabel(), n-1)
		}
		classes[i] = residueClass{s.Meta.Shard, n}
		if n != classes[0].n {
			uniform = false
		}
	}
	for i, c := range classes {
		for j, o := range classes[:i] {
			if c == o {
				return fmt.Errorf("campaign: merge: duplicate shard %s (%s)",
					shards[i].Meta.ShardLabel(), shards[i].Path)
			}
			if c.overlaps(o) {
				g := gcd(c.n, o.n)
				return fmt.Errorf(
					"campaign: merge: shards %s (%s) and %s (%s) overlap: both hold workload indices ≡ %d (mod %d)",
					shards[j].Meta.ShardLabel(), shards[j].Path,
					shards[i].Meta.ShardLabel(), shards[i].Path,
					c.r%g, g)
			}
		}
	}
	density := new(big.Rat)
	for _, c := range classes {
		density.Add(density, big.NewRat(1, int64(c.n)))
	}
	if density.Cmp(big.NewRat(1, 1)) != 0 {
		meta := shards[0].Meta
		if uniform {
			return fmt.Errorf(
				"campaign: merge: %s on %s has %d of %d shards (first: %s); run the missing residue classes first",
				meta.Profile, meta.FS, len(shards), classes[0].n, shards[0].Path)
		}
		return fmt.Errorf(
			"campaign: merge: %s on %s: %d residue classes cover %s of the workload space (first: %s); run the missing classes first",
			meta.Profile, meta.FS, len(shards), density.RatString(), shards[0].Path)
	}
	return nil
}

// mergeGroup folds the shards of one (fs, config) group into a MergeRow.
func mergeGroup(shards []*corpus.LoadedShard, knownDBFor func(string) *report.KnownDB) (*MergeRow, error) {
	meta := shards[0].Meta
	if err := checkResidueSystem(shards); err != nil {
		return nil, err
	}
	var generated int64 = -1
	for _, s := range shards {
		if s.Done == nil {
			return nil, fmt.Errorf(
				"campaign: merge: shard %s is incomplete (no completion marker): resume it with the same flags before merging",
				s.Path)
		}
		switch {
		case generated < 0:
			generated = s.Done.Generated
		case generated != s.Done.Generated:
			// A -max bound stops each residue class at a slightly different
			// enumeration point, so bounded shards are not a clean partition.
			return nil, fmt.Errorf(
				"campaign: merge: shards disagree on the enumeration count (%d vs %d in %s) — was the campaign run with a workload cap (-max)? cap-free shards always agree",
				generated, s.Done.Generated, s.Path)
		}
	}

	// The finest modulus in the system; for a uniform partition this is the
	// -shard i/n denominator, for a refined (work-stolen) system it is the
	// deepest split.
	numShards := meta.NumShards
	for _, s := range shards {
		if s.Meta.NumShards > numShards {
			numShards = s.Meta.NumShards
		}
	}
	row := &MergeRow{
		Stats:        &Stats{FSName: meta.FS, Generated: generated},
		Profile:      meta.Profile,
		NumShards:    numShards,
		ShardsMerged: len(shards),
	}
	var reports []*report.Report
	// Fold shards in residue order and verify each record sits in its
	// shard's class — the cheap proof that the files really partition one
	// enumeration. Deterministic fold order also makes merged report
	// rendering (group exemplars) deterministic.
	sort.Slice(shards, func(i, j int) bool { return shards[i].Meta.Shard < shards[j].Meta.Shard })
	for _, s := range shards {
		// The same class rule the generator fed this shard by (inClass).
		sample := s.Meta.SampleOrOne()
		for _, rec := range s.Records {
			if s.Meta.NumShards > 1 && !inClass(rec.Seq, sample, s.Meta.Shard, s.Meta.NumShards) {
				return nil, fmt.Errorf(
					"campaign: merge: %s holds workload seq %d outside its residue class %s",
					s.Path, rec.Seq, s.Meta.ShardLabel())
			}
			reports = row.Stats.fold(rec, false, reports)
		}
		if d := time.Duration(s.Done.ElapsedNS); d > row.Stats.Elapsed {
			row.Stats.Elapsed = d
		}
		row.TotalShardTime += time.Duration(s.Done.ElapsedNS)
	}
	// The reorder bound and torn sector size are config knobs, not
	// per-record counters; they are recoverable only from the config
	// fingerprint the shards were keyed by.
	for _, seg := range strings.Split(meta.Bounds, "|") {
		knob, v, _ := strings.Cut(seg, "=")
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		switch knob {
		case "reorder":
			row.Stats.ReorderBound = n
		case "sector":
			row.Stats.FaultSector = n
		}
	}
	var db *report.KnownDB
	if knownDBFor != nil {
		db = knownDBFor(meta.FS)
	}
	row.Stats.group(reports, db)
	return row, nil
}

// Summary renders one merged row: the unsharded-identical headline (the
// byte-for-byte contract TestShardUnionMatchesUnsharded checks), the
// shard-stable counters, and the bug groups. Counters whose value depends
// on per-process prune caches (the checked/pruned split) are summed but
// labelled as such.
func (r *MergeRow) Summary() string {
	s := r.Stats
	var sb strings.Builder
	sb.WriteString(s.headline())
	sb.WriteByte('\n')
	if r.NumShards > 1 {
		fmt.Fprintf(&sb, "merged from %d shards (slowest %.2fs, %.2fs total shard time)\n",
			r.ShardsMerged, s.Elapsed.Seconds(), r.TotalShardTime.Seconds())
	} else {
		fmt.Fprintf(&sb, "merged from 1 corpus shard (%.2fs)\n", s.Elapsed.Seconds())
	}
	fmt.Fprintf(&sb, "crash states: %d constructed; %d writes replayed",
		s.StatesTotal, s.ReplayedWrites)
	if s.StatesPruned > 0 {
		fmt.Fprintf(&sb, " (%d checked + %d pruned per-shard caches)",
			s.StatesChecked, s.StatesPruned)
	}
	sb.WriteByte('\n')
	if s.ReorderStates > 0 {
		fmt.Fprintf(&sb, "reorder: %d states constructed, %d broken\n",
			s.ReorderStates, s.ReorderBroken)
	}
	if len(s.FaultKinds) > 0 {
		fmt.Fprintf(&sb, "faults (sector=%d):", s.FaultSector)
		for i, fk := range s.FaultKinds {
			if i > 0 {
				sb.WriteByte(';')
			}
			fmt.Fprintf(&sb, " %s %d states, %d broken", fk.Kind, fk.States, fk.Broken)
		}
		sb.WriteByte('\n')
	}
	if s.KVClasses.Total() > 0 {
		fmt.Fprintf(&sb, "kv oracle: %d states classified: %d legal, %d lost-ack, %d resurrected, %d unreplayable\n",
			s.KVClasses.Total(), s.KVClasses.Legal, s.KVClasses.LostAck,
			s.KVClasses.Resurrected, s.KVClasses.Unreplayable)
	}
	for _, g := range s.FreshGroups {
		sb.WriteByte('\n')
		sb.WriteString(g.Render())
	}
	return sb.String()
}

// Table renders the merged cross-FS table over the shard-stable counters.
func (m *Merge) Table() string {
	t := report.NewTable("file system", "profile", "shards", "generated", "tested",
		"failing", "groups", "new", "states", "reorder", "r-broken",
		"torn", "corrupt", "misdir", "kv", "replayed")
	for _, r := range m.Rows {
		s := r.Stats
		t.AddRow(
			s.FSName,
			r.Profile,
			fmt.Sprintf("%d", r.ShardsMerged),
			fmt.Sprintf("%d", s.Generated),
			fmt.Sprintf("%d", s.Tested),
			fmt.Sprintf("%d", s.Failed),
			fmt.Sprintf("%d", len(s.Groups)),
			fmt.Sprintf("%d", len(s.FreshGroups)),
			fmt.Sprintf("%d", s.StatesTotal),
			fmt.Sprintf("%d", s.ReorderStates),
			fmt.Sprintf("%d", s.ReorderBroken),
			s.faultCell(blockdev.FaultTorn.String()),
			s.faultCell(blockdev.FaultCorrupt.String()),
			s.faultCell(blockdev.FaultMisdirect.String()),
			s.kvCell(),
			fmt.Sprintf("%d", s.ReplayedWrites),
		)
	}
	return t.Render()
}

// Summary renders the whole merge: the cross-FS table followed by each
// row's merged summary.
func (m *Merge) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "merged campaign corpus: %d campaign row(s)\n\n", len(m.Rows))
	sb.WriteString(m.Table())
	for _, r := range m.Rows {
		sb.WriteByte('\n')
		sb.WriteString(r.Summary())
	}
	return sb.String()
}
