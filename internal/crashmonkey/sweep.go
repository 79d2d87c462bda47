package crashmonkey

import (
	"errors"
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/kvoracle"
)

// One judged sweep. CrashMonkey's pipeline (§5.1) — construct a crash state,
// recover, check — is the same for every workload family and on every axis
// (persistence points, bounded reordering, fault injection); only the last
// step knows what "correct" means. That step is the oracle seam below. The
// file family judges persistence points with the AutoChecker (fileOracle)
// and its reorder/fault states for recoverability alone (mountOracle); the
// application family judges every axis with the store's own recovery and
// the expected-state oracle (kvOracle). Monkey.record stores the family's
// oracles on the Profile, so one TestCheckpoint, one ExploreReorder and one
// ExploreFaults serve both families. Everything else — cache keys, the one
// disk-tier lookup per state, storing, tallying — exists once, here and in
// those entry points.
// The KV class is rendered with the KV verdict (cachedVerdict.class) and
// tallied in settle, so nothing downstream re-derives it from findings.

// oracle is the per-family seam of the sweep pipeline. at selects the
// expectation a crash state is judged against: the 1-based persistence
// point on the checkpoint path, the state's persistence interval (its
// Interval) in the reorder and fault sweeps.
type oracle interface {
	// salt is the expectation's share of the verdict-cache key: two crash
	// states share a verdict only when their contents and this value agree.
	// It is XOR-composed with the Monkey's pruneSalt and the axis salt.
	salt(at int) uint64
	// judge recovers the crash state on mk's file system and renders its
	// verdict. tier is "tree" when recovery ran but the verdict was reused
	// from the tree tier (only fileOracle does that), "" when the state was
	// judged in full.
	judge(mk *Monkey, crash *blockdev.Snapshot, at int) (v *cachedVerdict, tier string, err error)
}

// judged resolves the verdict of one constructed crash state whose disk-tier
// lookup missed on key: rendered by check and stored under key.
func (mk *Monkey) judged(key stateKey,
	check func() (*cachedVerdict, string, error)) (*cachedVerdict, string, error) {
	if mk.Prune == nil {
		return check()
	}
	v, tier, err := check()
	if err != nil {
		return nil, "", err
	}
	if tier == "" {
		mk.Prune.misses.Add(1)
	}
	mk.Prune.storeDisk(key, v)
	return v, tier, nil
}

// mountOrRepair mounts a crash state, falling back to fsck plus a remount
// when recovery reports corruption (§5.1: "fsck is run only if the recovered
// file system is un-mountable"). The verdict records how far it got; m is
// nil when the state is broken — it neither mounted nor was repaired. The
// verdict is cacheable: recovery is a deterministic function of the device
// contents and the file-system configuration.
func (mk *Monkey) mountOrRepair(crash blockdev.Device) (filesys.MountedFS, *cachedVerdict, error) {
	m, err := mk.FS.Mount(crash)
	if err == nil {
		return m, &cachedVerdict{mountable: true}, nil
	}
	if !errors.Is(err, filesys.ErrCorrupted) {
		return nil, nil, err
	}
	v := &cachedVerdict{fsckRun: true}
	if repaired, ferr := mk.FS.Fsck(crash); ferr == nil && repaired {
		if m, err = mk.FS.Mount(crash); err == nil {
			v.fsckRepaired = true
			return m, v, nil
		}
	}
	return nil, v, nil
}

// mountOracle judges the file family's reorder and fault states. B3's
// correctness criteria are undefined mid-operation, so there is no
// expectation (a constant salt) and the check is the assumption B3 rests on:
// recovery must reach a mountable image, at worst after fsck.
type mountOracle struct{}

func (mountOracle) salt(int) uint64 { return 0 }

func (mountOracle) judge(mk *Monkey, crash *blockdev.Snapshot, _ int) (*cachedVerdict, string, error) {
	_, v, err := mk.mountOrRepair(crash)
	return v, "", err
}

// sweepCounts is the accounting of one judged enumeration, shared by every
// axis report (ReorderReport, FaultKindReport) and filled by sweep.
type sweepCounts struct {
	// States is the number of crash states enumerated.
	States int
	// Checked counts states whose recovery actually ran. A state whose
	// fingerprint was already judged reuses the cached verdict and counts
	// once, by engine: Pruned in the scratch engine, which built the state
	// before its lookup; ClassSkipped in the incremental engine, which
	// looked up the enumerator's O(1) delta fingerprint and never built it.
	Checked      int
	Pruned       int
	ClassSkipped int
	// Mountable counts states that recovered without help; Repaired counts
	// states that needed fsck and then mounted.
	Mountable int
	Repaired  int
	// Broken names (by String) the states that neither mounted nor
	// repaired: violations of the core-mechanism assumption. No other
	// state's name is rendered.
	Broken []string
	// Classes tallies the application oracle's class of every state whose
	// verdict has one: kvOracle's states that mounted or were repaired. It
	// stays zero for the file family.
	Classes kvoracle.Counts
	// ReplayedWrites is the metered number of recorded writes replayed to
	// construct the sweep's states (torn, corrupting and misdirected writes
	// included). The incremental engine replays each epoch once per sweep
	// plus the in-flight deltas; the scratch engine re-replays every prior
	// epoch for every state.
	ReplayedWrites int64
}

// sweep is one judged enumeration — one reorder sweep, or one fault kind's
// sweep — of a profile against its sweep oracle. The entry points hand its
// counts to their axis report once the enumeration ends.
type sweep struct {
	mk   *Monkey
	base *blockdev.MemDisk
	o    oracle
	// salt is pruneSalt ^ the axis salt; the oracle's joins it per state.
	salt uint64

	// err is the first error of the sweep; the enumeration stops on it.
	err error

	sweepCounts

	// fp is the fingerprint of the state judge keys on next, recorded by
	// seen: the enumerator's prediction for the state it builds next, or
	// scratchState's overlay scan. Neither hashes the blocks recovery writes.
	fp uint64
}

func (mk *Monkey) newSweep(p *Profile, axisSalt uint64) *sweep {
	return &sweep{mk: mk, base: p.base, o: p.sweeps, salt: mk.pruneSalt() ^ axisSalt}
}

func (s *sweep) key(interval int, fp uint64) stateKey {
	return stateKey{state: fp, oracle: s.salt ^ s.o.salt(interval)}
}

func (s *sweep) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// named ends an axis callback on st's verdict v (nil: a Seen miss, or the
// sweep failed) and reports whether st is settled. A state that neither
// mounted nor was repaired is named in Broken: no other state is named.
func named[S fmt.Stringer](s *sweep, st S, v *cachedVerdict) bool {
	if v != nil && !v.mountable && !v.fsckRepaired {
		s.Broken = append(s.Broken, st.String())
	}
	return v != nil
}

// settle accounts one enumerated state's verdict and returns it; how is the
// counter for the way the verdict was obtained (checked, pruned or
// class-skipped). Skipped states settle exactly like constructed ones, so
// a report — Broken list and class tally included — is byte-identical across
// the pruning modes. A verdict with no application class tallies none.
func (s *sweep) settle(v *cachedVerdict, how *int) *cachedVerdict {
	s.States++
	*how++
	switch {
	case v.mountable:
		s.Mountable++
	case v.fsckRepaired:
		s.Repaired++
	}
	if v.classed {
		s.Classes.Add(v.class)
	}
	return v
}

// judge settles one constructed state whose lookup in seen missed —
// recover against the expectation of interval, store — and returns its
// verdict, or nil once the sweep has failed. The sweep oracles render
// every verdict in full (no tree tier).
func (s *sweep) judge(interval int, crash *blockdev.Snapshot) *cachedVerdict {
	var key stateKey
	if s.mk.Prune != nil {
		key = s.key(interval, s.fp)
	}
	v, _, err := s.mk.judged(key, func() (*cachedVerdict, string, error) {
		return s.o.judge(s.mk, crash, interval)
	})
	if err != nil {
		s.fail(err)
		return nil
	}
	return s.settle(v, &s.Checked)
}

// seen is the state's one disk-tier lookup, consulted with its fingerprint
// (the incremental enumerators' Seen hook, or scratchState after the build):
// it records fp for judge, and a state whose fingerprint was already judged
// under the same expectation is settled from the cached verdict under how.
// It returns that verdict, nil on a miss.
func (s *sweep) seen(interval int, fp uint64, how *int) *cachedVerdict {
	s.fp = fp
	v, ok := s.mk.Prune.lookupDisk(s.key(interval, fp))
	if !ok {
		return nil
	}
	return s.settle(v, how)
}

// scratchState is the cross-check engine's step: the state is built on a
// fresh snapshot of the base image, apply replaying all prior epochs and
// counting its writes, then looked up by its overlay-scan fingerprint and
// judged on a miss. It returns the verdict, nil once the sweep has failed.
func (s *sweep) scratchState(interval int, apply func(blockdev.Device) (int64, error)) *cachedVerdict {
	crash, n, err := scratchBuild(s.base, s.mk.Meter, apply)
	if err != nil {
		s.fail(err)
		return nil
	}
	defer crash.Release()
	s.ReplayedWrites += n
	if s.mk.Prune != nil {
		if v := s.seen(interval, crash.Fingerprint(), &s.Pruned); v != nil {
			return v
		}
	}
	return s.judge(interval, crash)
}

// scratchBuild is the from-scratch construction both scratch paths share:
// apply replays a crash state onto a fresh snapshot of base and reports the
// writes it replayed, which are folded into meter. The snapshot is metered
// too, or the -v cross-check comparison would show no read/alloc traffic
// against the incremental rows.
func scratchBuild(base blockdev.Device, meter *blockdev.BlockMeter,
	apply func(blockdev.Device) (int64, error)) (*blockdev.Snapshot, int64, error) {
	crash := blockdev.NewSnapshot(base)
	crash.SetMeter(meter)
	n, err := apply(crash)
	if err != nil {
		return nil, n, err
	}
	if meter != nil {
		meter.BlocksReplayed.Add(n)
	}
	return crash, n, nil
}
