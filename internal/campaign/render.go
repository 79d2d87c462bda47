package campaign

import (
	"fmt"
	"strings"
	"time"

	"b3/internal/blockdev"
	"b3/internal/report"
)

// faultCell renders one kind's matrix-table cell ("states/broken", or "-"
// when the campaign did not sweep that kind).
func (s *Stats) faultCell(kind string) string {
	for _, f := range s.FaultKinds {
		if f.Kind == kind {
			return fmt.Sprintf("%d/%d", f.States, f.Broken)
		}
	}
	return "-"
}

// BlockIOSummary renders the block-layer IO counters (the -v campaign line
// CI logs watch for replay-cost regressions).
func (s *Stats) BlockIOSummary() string {
	return fmt.Sprintf("block io on %s: %d writes replayed (%.1f/state), %d blocks read, %d KiB allocated",
		s.FSName, s.ReplayedWrites, s.ReplayPerState(), s.BlocksRead, s.BytesAllocated/1024)
}

// headline renders the first Summary line: the shard-stable campaign
// counters. MergeStats reuses it verbatim, which is what makes a merged
// summary byte-identical to the unsharded run's on this line.
func (s *Stats) headline() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign on %s: %d workloads generated, %d tested, %d failing, %d groups",
		s.FSName, s.Generated, s.Tested, s.Failed, len(s.Groups))
	if len(s.KnownGroups) > 0 {
		fmt.Fprintf(&sb, " (%d known, %d new)", len(s.KnownGroups), len(s.FreshGroups))
	}
	return sb.String()
}

// Summary renders the campaign outcome in a Table 4/Table 5 flavoured form.
func (s *Stats) Summary() string {
	var sb strings.Builder
	sb.WriteString(s.headline())
	if s.NumShards > 1 {
		fmt.Fprintf(&sb, "\nshard %d/%d: this run tested only its residue class of the sweep (merge all %d with b3 -merge)",
			s.Shard, s.NumShards, s.NumShards)
	}
	fmt.Fprintf(&sb, "\ncrash states: %d constructed, %d checked, %d pruned",
		s.StatesTotal, s.StatesChecked, s.StatesPruned)
	if s.StatesPruned > 0 {
		fmt.Fprintf(&sb, " (%d identical-disk, %d identical-tree; %.0f%% of oracle checks skipped)",
			s.PrunedDisk, s.PrunedTree, 100*s.PruneRate())
	}
	if s.ReplayedWrites > 0 {
		fmt.Fprintf(&sb, "; %d writes replayed (%.1f/state)",
			s.ReplayedWrites, s.ReplayPerState())
	}
	if s.PruneCap > 0 {
		fmt.Fprintf(&sb, "\nprune cache: %d distinct states held (cap %d/tier)",
			s.DistinctStates, s.PruneCap)
		if ev := s.DiskEvictions + s.TreeEvictions; ev > 0 {
			fmt.Fprintf(&sb, ", %d evicted (%d disk, %d tree)",
				ev, s.DiskEvictions, s.TreeEvictions)
		}
	}
	if s.ReorderBound > 0 {
		fmt.Fprintf(&sb, "\nreorder (k=%d): %d states enumerated, %d checked, %d pruned, %d broken",
			s.ReorderBound, s.ReorderStates, s.ReorderChecked, s.ReorderPruned, s.ReorderBroken)
		if s.ReorderClassSkipped > 0 {
			fmt.Fprintf(&sb, "; never constructed: %d class-skipped", s.ReorderClassSkipped)
		}
	}
	if len(s.FaultKinds) > 0 {
		fmt.Fprintf(&sb, "\nfaults (sector=%d):", s.FaultSector)
		for i, fk := range s.FaultKinds {
			if i > 0 {
				sb.WriteByte(';')
			}
			fmt.Fprintf(&sb, " %s %d states, %d checked, %d pruned, %d broken",
				fk.Kind, fk.States, fk.Checked, fk.Pruned, fk.Broken)
			if fk.ClassSkipped > 0 {
				fmt.Fprintf(&sb, " (%d class-skipped)", fk.ClassSkipped)
			}
		}
	}
	if s.KVClasses.Total() > 0 {
		fmt.Fprintf(&sb, "\nkv oracle: %d states classified: %d legal, %d lost-ack, %d resurrected, %d unreplayable",
			s.KVClasses.Total(), s.KVClasses.Legal, s.KVClasses.LostAck,
			s.KVClasses.Resurrected, s.KVClasses.Unreplayable)
	}
	if s.Resumed > 0 {
		fmt.Fprintf(&sb, "\nresumed: %d workloads folded in from %s", s.Resumed, s.CorpusPath)
	}
	fmt.Fprintf(&sb, "\nelapsed %.2fs (gen %.0f/s, test %.0f/s)",
		s.Elapsed.Seconds(), s.GenRate(), s.TestRate())
	// Timing and memory figures exist only for live-profiled workloads
	// (DirtySample); resumed records fold verdicts, not durations.
	if live := s.DirtySample; live > 0 {
		fmt.Fprintf(&sb, "\nper live workload: profile %s, crash-state %s, check %s; avg dirty %d KiB",
			time.Duration(int64(s.ProfileDur)/live),
			time.Duration(int64(s.ReplayDur)/live),
			time.Duration(int64(s.CheckDur)/live),
			s.AvgDirtyBytes()/1024)
	}
	sb.WriteByte('\n')
	for _, g := range s.FreshGroups {
		sb.WriteByte('\n')
		sb.WriteString(g.Render())
	}
	return sb.String()
}

// Matrix is the outcome of a multi-file-system campaign: one Stats per
// file system, in the order the file systems were given.
type Matrix struct {
	PerFS   []*Stats
	Elapsed time.Duration
}

// ByFS returns the row for one file system (nil if absent).
func (m *Matrix) ByFS(name string) *Stats {
	for _, s := range m.PerFS {
		if s.FSName == name {
			return s
		}
	}
	return nil
}

// Table renders the merged cross-FS report table: one row per file system
// with the headline campaign counters.
func (m *Matrix) Table() string {
	t := report.NewTable("file system", "generated", "tested", "failing",
		"groups", "new", "states", "pruned", "evicted", "rw/state", "reorder", "r-skip", "r-broken",
		"torn", "corrupt", "misdir", "kv")
	for _, s := range m.PerFS {
		t.AddRow(
			s.FSName,
			fmt.Sprintf("%d", s.Generated),
			fmt.Sprintf("%d", s.Tested),
			fmt.Sprintf("%d", s.Failed),
			fmt.Sprintf("%d", len(s.Groups)),
			fmt.Sprintf("%d", len(s.FreshGroups)),
			fmt.Sprintf("%d", s.StatesTotal),
			fmt.Sprintf("%.0f%%", 100*s.PruneRate()),
			fmt.Sprintf("%d", s.DiskEvictions+s.TreeEvictions),
			fmt.Sprintf("%.1f", s.ReplayPerState()),
			fmt.Sprintf("%d", s.ReorderStates),
			fmt.Sprintf("%d", s.ReorderClassSkipped),
			fmt.Sprintf("%d", s.ReorderBroken),
			s.faultCell(blockdev.FaultTorn.String()),
			s.faultCell(blockdev.FaultCorrupt.String()),
			s.faultCell(blockdev.FaultMisdirect.String()),
			s.kvCell(),
		)
	}
	return t.Render()
}

// kvCell renders the KV-oracle column: classified/violations for an
// application-workload campaign, "-" for a file-level one.
func (s *Stats) kvCell() string {
	if s.KVClasses.Total() == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", s.KVClasses.Total(), s.KVClasses.Violations())
}

// Summary renders the cross-FS table followed by each file system's fresh
// bug groups.
func (m *Matrix) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign matrix: %d file systems in %.2fs\n\n",
		len(m.PerFS), m.Elapsed.Seconds())
	sb.WriteString(m.Table())
	for _, s := range m.PerFS {
		for _, g := range s.FreshGroups {
			sb.WriteByte('\n')
			sb.WriteString(g.Render())
		}
	}
	return sb.String()
}
