package crashmonkey

import (
	"bytes"
	"fmt"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/fs/f2fsim"
	"b3/internal/fs/fscqsim"
	"b3/internal/fs/journalfs"
	"b3/internal/workload"
)

// legacySweep reimplements the retired ExploreMidOp drop-write scan (every
// write prefix, plus everything-up-to-the-next-barrier with one write
// dropped) so the new engine can be cross-checked against it. flushOnly
// reproduces the original barrier bug — only RecFlush ends a reorder window
// — which let a write be dropped past the checkpoint that persisted it.
func legacySweep(mk *Monkey, p *Profile, flushOnly bool) (*ReorderReport, error) {
	log := p.rec.Log()
	report := &ReorderReport{Bound: 1}
	isBarrier := func(k blockdev.RecordKind) bool {
		if flushOnly {
			return k == blockdev.RecFlush
		}
		return k == blockdev.RecFlush || k == blockdev.RecCheckpoint
	}
	try := func(desc string, build func(dst blockdev.Device) error) error {
		crash := blockdev.NewSnapshot(p.base)
		if err := build(crash); err != nil {
			return err
		}
		report.States++
		report.Checked++
		_, v, err := mk.mountOrRepair(crash)
		if err != nil {
			return err
		}
		switch {
		case v.mountable:
			report.Mountable++
		case v.fsckRepaired:
			report.Repaired++
		default:
			report.Broken = append(report.Broken, desc)
		}
		return nil
	}
	writes := 0
	for _, rec := range log {
		if rec.Kind == blockdev.RecWrite {
			writes++
		}
	}
	for n := 0; n <= writes; n++ {
		n := n
		if err := try(fmt.Sprintf("prefix-%d", n), func(dst blockdev.Device) error {
			_, err := blockdev.ReplayPrefix(dst, log, n)
			return err
		}); err != nil {
			return nil, err
		}
	}
	writeIdx := -1
	for i, rec := range log {
		if rec.Kind != blockdev.RecWrite {
			continue
		}
		writeIdx++
		barrierPos := len(log)
		for j := i + 1; j < len(log); j++ {
			if isBarrier(log[j].Kind) {
				barrierPos = j
				break
			}
		}
		skip := writeIdx
		limit := 0
		for j := 0; j < barrierPos; j++ {
			if log[j].Kind == blockdev.RecWrite {
				limit++
			}
		}
		if err := try(fmt.Sprintf("drop-write-%d", writeIdx), func(dst blockdev.Device) error {
			idx := 0
			for _, rec := range log {
				if rec.Kind != blockdev.RecWrite {
					continue
				}
				if idx >= limit {
					return nil
				}
				if idx != skip {
					if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
						return err
					}
				}
				idx++
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// TestReorderCoreMechanismHolds validates the assumption B3 rests on
// (§4.4): from every bounded-reordering crash state, each file system's
// core crash-consistency mechanism (superblock flip + checksummed blobs)
// must recover to a mountable image, possibly via fsck.
func TestReorderCoreMechanismHolds(t *testing.T) {
	text := `
mkdir /A
creat /A/foo
write /A/foo 0 16384
fsync /A/foo
link /A/foo /A/bar
rename /A/foo /A/baz
sync
write /A/baz 4096 4096
fsync /A/baz
`
	for _, fs := range []struct {
		name string
		m    *Monkey
	}{
		{"logfs", &Monkey{FS: logfsFixed()}},
		{"journalfs", &Monkey{FS: journalfs.New(journalfs.Options{BugOverride: map[string]bool{}})}},
		{"f2fsim", &Monkey{FS: f2fsim.New(f2fsim.Options{BugOverride: map[string]bool{}})}},
		{"fscqsim", &Monkey{FS: fscqsim.New(fscqsim.Options{BugOverride: map[string]bool{}})}},
	} {
		w, err := workload.Parse("reorder", text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fs.m.ProfileWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		fs.m.Prune = NewPruneCache()
		report, err := fs.m.ExploreReorder(p, 2)
		if err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		if report.States < 10 {
			t.Fatalf("%s: only %d reorder states explored", fs.name, report.States)
		}
		if !report.Clean() {
			t.Fatalf("%s: core mechanism broken in states %v (of %d)",
				fs.name, report.Broken, report.States)
		}
		if report.Mountable+report.Repaired != report.States {
			t.Fatalf("%s: verdict accounting broken: %d + %d != %d",
				fs.name, report.Mountable, report.Repaired, report.States)
		}
		if report.Checked+report.Pruned+report.ClassSkipped+report.CommuteSkipped != report.States {
			t.Fatalf("%s: prune accounting broken: %d + %d + %d + %d != %d",
				fs.name, report.Checked, report.Pruned,
				report.ClassSkipped, report.CommuteSkipped, report.States)
		}
		perEpoch := 0
		for _, e := range report.PerEpoch {
			perEpoch += e.States
		}
		// Every state except the final fully-replayed one belongs to an
		// in-flight epoch; the final state is tallied to the last epoch.
		if perEpoch != report.States {
			t.Fatalf("%s: per-epoch accounting covers %d of %d states",
				fs.name, perEpoch, report.States)
		}
		t.Logf("%s: %d states (%d checked, %d pruned), %d mountable, %d repaired",
			fs.name, report.States, report.Checked, report.Pruned,
			report.Mountable, report.Repaired)
	}
}

// TestReorderStateCountGrowth demonstrates the §4.1 argument quantitatively:
// the reordering state space grows with every block write (and with the
// bound k) while the persistence-point space stays linear in the number of
// fsyncs.
func TestReorderStateCountGrowth(t *testing.T) {
	mk := &Monkey{FS: logfsFixed()}
	short, err := mk.ProfileWorkload(mustParse(t, "s", "creat /a\nfsync /a\n"))
	if err != nil {
		t.Fatal(err)
	}
	long, err := mk.ProfileWorkload(mustParse(t, "l", `
creat /a
write /a 0 65536
fsync /a
write /a 65536 65536
fsync /a
sync
`))
	if err != nil {
		t.Fatal(err)
	}
	rShort, err := mk.ExploreReorder(short, 1)
	if err != nil {
		t.Fatal(err)
	}
	rLong, err := mk.ExploreReorder(long, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rLong.States <= rShort.States {
		t.Fatalf("reorder space must grow with IO: %d vs %d", rLong.States, rShort.States)
	}
	rLong2, err := mk.ExploreReorder(long, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rLong2.States <= rLong.States {
		t.Fatalf("k=2 must open more states than k=1: %d vs %d", rLong2.States, rLong.States)
	}
	if long.Checkpoints() != 3 {
		t.Fatalf("persistence points stay linear: %d", long.Checkpoints())
	}
}

// TestReorderK1MatchesDropWrite cross-checks the engine against the legacy
// sweep on real profiled workloads: at k=1 both construct the same number
// of states with identical recovery verdicts, and the pruned engine runs
// strictly fewer recoveries than the legacy sweep checked (byte-identical
// states — the shared barriered prefix, dropping an epoch's last write —
// are judged once).
func TestReorderK1MatchesDropWrite(t *testing.T) {
	texts := []string{
		"creat /a\nfsync /a\n",
		"mkdir /A\ncreat /A/foo\nwrite /A/foo 0 16384\nfsync /A/foo\nsync\n",
		"creat /a\nwrite /a 0 8192\nfdatasync /a\nlink /a /b\nfsync /b\n",
	}
	legacyMk := &Monkey{FS: logfsFixed()}
	prunedMk := &Monkey{FS: logfsFixed(), Prune: NewPruneCache()}
	totalLegacyChecked, totalPrunedChecked := 0, 0
	for i, text := range texts {
		w := mustParse(t, fmt.Sprintf("x%d", i), text)
		p, err := legacyMk.ProfileWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := legacySweep(legacyMk, p, false)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := prunedMk.ExploreReorder(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if engine.States != legacy.States {
			t.Fatalf("workload %d: engine constructed %d states, legacy %d",
				i, engine.States, legacy.States)
		}
		if engine.Mountable != legacy.Mountable || engine.Repaired != legacy.Repaired ||
			len(engine.Broken) != len(legacy.Broken) {
			t.Fatalf("workload %d: verdicts diverged:\nengine: %d mountable, %d repaired, %v\nlegacy: %d mountable, %d repaired, %v",
				i, engine.Mountable, engine.Repaired, engine.Broken,
				legacy.Mountable, legacy.Repaired, legacy.Broken)
		}
		totalLegacyChecked += legacy.Checked
		totalPrunedChecked += engine.Checked
	}
	if totalPrunedChecked >= totalLegacyChecked {
		t.Fatalf("pruned engine ran no fewer recoveries: %d vs %d",
			totalPrunedChecked, totalLegacyChecked)
	}
	t.Logf("recoveries run: %d pruned vs %d legacy", totalPrunedChecked, totalLegacyChecked)
}

// barrierFS is a stub file system whose on-disk invariant makes the barrier
// bug observable: block 1 is only ever written after block 0 was persisted
// by a checkpoint, so any state holding block 1's payload without block 0's
// is impossible on a real device — a mount of it fails and fsck cannot
// help. Kept deliberately tiny: the engine only needs Mount/Fsck.
type barrierFS struct{ a, b []byte }

func (f *barrierFS) Name() string                       { return "barrierfs" }
func (f *barrierFS) Mkfs(dev blockdev.Device) error     { return nil }
func (f *barrierFS) Guarantees() filesys.Guarantees     { return filesys.Guarantees{} }
func (f *barrierFS) Fsck(blockdev.Device) (bool, error) { return false, nil }
func (f *barrierFS) Mount(dev blockdev.Device) (filesys.MountedFS, error) {
	b0, err := dev.ReadBlock(0)
	if err != nil {
		return nil, err
	}
	b1, err := dev.ReadBlock(1)
	if err != nil {
		return nil, err
	}
	hasA := bytes.Equal(b0[:len(f.a)], f.a)
	hasB := bytes.Equal(b1[:len(f.b)], f.b)
	if hasB && !hasA {
		return nil, fmt.Errorf("barrierfs: data without its checkpointed dependency: %w", filesys.ErrCorrupted)
	}
	return nil, nil
}

// TestReorderBarrierSoundness is the regression for the mid-op barrier bug
// (the engine's epochs must close on RecCheckpoint, not just RecFlush): on
// an fsync-heavy stream whose file system omits the explicit flush, the
// flush-only legacy scan manufactures an impossible state and reports the
// core mechanism broken; the fixed legacy scan and the new engine at every
// bound agree the file system is sound.
func TestReorderBarrierSoundness(t *testing.T) {
	fs := &barrierFS{a: []byte("payload-A"), b: []byte("payload-B")}
	base := blockdev.NewMemDisk(8)
	rec := blockdev.NewRecorder(blockdev.NewSnapshot(base))
	write := func(block int64, data []byte) {
		buf := make([]byte, blockdev.BlockSize)
		copy(buf, data)
		if err := rec.WriteBlock(block, buf); err != nil {
			t.Fatal(err)
		}
	}
	// fsync writes block 0 and reports durability (checkpoint) without an
	// explicit flush; block 1 follows, still in flight at the crash.
	write(0, fs.a)
	rec.Checkpoint()
	write(1, fs.b)
	p := &Profile{base: base, rec: rec}

	mk := &Monkey{FS: fs}
	buggy, err := legacySweep(mk, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if buggy.Clean() {
		t.Fatal("flush-only barriers failed to manufacture the impossible state; the regression tests nothing")
	}
	fixed, err := legacySweep(mk, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.Clean() {
		t.Fatalf("legacy sweep with checkpoint barriers still unsound: %v", fixed.Broken)
	}
	for _, k := range []int{0, 1, 2} {
		report, err := mk.ExploreReorder(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Clean() {
			t.Fatalf("k=%d: engine dropped a write past its checkpoint: %v", k, report.Broken)
		}
	}
}

// TestReorderPruneVerdictEquivalence: pruning reuses verdicts, never
// changes them — a pruned sweep reports identical totals to an unpruned
// sweep of the same profile while running strictly fewer recoveries.
func TestReorderPruneVerdictEquivalence(t *testing.T) {
	mk := &Monkey{FS: logfsFixed()}
	w := mustParse(t, "pr", `
mkdir /A
creat /A/foo
write /A/foo 0 16384
fsync /A/foo
rename /A/foo /A/bar
sync
`)
	p, err := mk.ProfileWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mk.ExploreReorder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Pruned != 0 || plain.Checked != plain.States {
		t.Fatalf("unpruned sweep pruned: %+v", plain)
	}
	mk.Prune = NewPruneCache()
	pruned, err := mk.ExploreReorder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.States != plain.States {
		t.Fatalf("state counts diverged: %d vs %d", pruned.States, plain.States)
	}
	if pruned.Mountable != plain.Mountable || pruned.Repaired != plain.Repaired ||
		len(pruned.Broken) != len(plain.Broken) {
		t.Fatalf("verdicts diverged: pruned %+v vs plain %+v", pruned, plain)
	}
	if pruned.Checked >= plain.Checked {
		t.Fatalf("pruning ran no fewer recoveries: %d vs %d", pruned.Checked, plain.Checked)
	}
	// A second pruned sweep of the same profile is almost entirely cached.
	again, err := mk.ExploreReorder(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Checked != 0 {
		t.Fatalf("repeat sweep re-checked %d states", again.Checked)
	}
	if again.Mountable != plain.Mountable || again.Repaired != plain.Repaired {
		t.Fatalf("cached verdicts diverged: %+v vs %+v", again, plain)
	}
}
