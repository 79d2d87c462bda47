package crashmonkey

import (
	"errors"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

// One judged sweep. CrashMonkey's pipeline (§5.1) — construct a crash state,
// recover, check — is the same for every workload family and on every axis
// (persistence points, bounded reordering, fault injection); only the last
// step knows what "correct" means. That step is the oracle seam below. The
// file family judges persistence points with the AutoChecker (fileOracle)
// and its reorder/fault states for recoverability alone (mountOracle); the
// application family judges every axis with the store's own recovery and
// the expected-state oracle (kvOracle). Everything else — cache keys, the
// enumeration-time class lookup, commute representatives, the disk-tier
// lookup, storing, tallying — exists once, here and in the two drivers
// (exploreReorder, exploreFaultKind).

// oracle is the per-family seam of the sweep pipeline. at selects the
// expectation a crash state is judged against: the 1-based persistence
// point on the checkpoint path, the in-flight epoch's persistence interval
// (blockdev.Epoch.Checkpoints) in the reorder and fault sweeps.
type oracle interface {
	// salt is the expectation's share of the verdict-cache key: two crash
	// states share a verdict only when their contents and this value agree.
	// It is XOR-composed with the Monkey's pruneSalt and the axis salt.
	salt(at int) uint64
	// judge recovers the crash state and renders its verdict. tier is "tree"
	// when recovery ran but the verdict was reused from the tree tier (only
	// fileOracle does that), "" when the state was judged in full.
	judge(crash *blockdev.Snapshot, at int) (v *cachedVerdict, tier string, err error)
}

// judged resolves the verdict of one constructed crash state: reused from
// the disk tier when key was already judged (tier "disk"), otherwise rendered
// by check and stored under key. missed says an enumeration-time lookup
// already missed on key, so the lookup is not repeated.
func (mk *Monkey) judged(key stateKey, missed bool,
	check func() (*cachedVerdict, string, error)) (*cachedVerdict, string, error) {
	if mk.Prune == nil {
		return check()
	}
	if !missed {
		if v, ok := mk.Prune.lookupDisk(key); ok {
			return v, "disk", nil
		}
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
type mountOracle struct{ mk *Monkey }

func (mountOracle) salt(int) uint64 { return 0 }

func (o mountOracle) judge(crash *blockdev.Snapshot, _ int) (*cachedVerdict, string, error) {
	_, v, err := o.mk.mountOrRepair(crash)
	return v, "", err
}

// sweep is one judged enumeration — one reorder sweep, or one fault kind's
// sweep — of a profile against an oracle. It owns the accounting the drivers
// copy into their axis report once the enumeration ends.
type sweep struct {
	mk     *Monkey
	base   *blockdev.MemDisk
	epochs []blockdev.Epoch
	o      oracle
	// salt is pruneSalt ^ the axis salt; the oracle's joins it per state.
	salt uint64
	// observe, when non-nil, sees the verdict of every enumerated state —
	// judged, reused, or skipped before construction alike.
	observe func(*cachedVerdict)

	// err is the first error of the sweep; the enumeration stops on it.
	err error

	states, checked, pruned      int
	classSkipped, commuteSkipped int
	mountable, repaired          int
	broken                       []string
	replayed                     int64
	// perEpoch is the reorder sweep's per-epoch accounting (nil for faults).
	perEpoch []ReorderEpoch
}

func (mk *Monkey) newSweep(p *Profile, axisSalt uint64, o oracle, observe func(*cachedVerdict)) *sweep {
	return &sweep{mk: mk, base: p.base, epochs: blockdev.Epochs(p.rec.Log()), o: o,
		salt: mk.pruneSalt() ^ axisSalt, observe: observe}
}

// at maps a state's in-flight epoch to the persistence interval its
// expectation is taken from (-1, the empty state of a writeless log, is
// before every persistence point).
func (s *sweep) at(epoch int) int {
	if epoch < 0 || epoch >= len(s.epochs) {
		return 0
	}
	return s.epochs[epoch].Checkpoints
}

func (s *sweep) key(epoch int, fp uint64) stateKey {
	return stateKey{state: fp, oracle: s.salt ^ s.o.salt(s.at(epoch))}
}

// classPrune reports whether enumeration-time class pruning is on.
func (s *sweep) classPrune() bool { return s.mk.Prune != nil && !s.mk.NoClassPrune }

func (s *sweep) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// settle accounts one enumerated state under its own Desc; how is the
// counter for the way its verdict was obtained (checked, pruned, class- or
// commute-skipped). Skipped states settle exactly like constructed ones, so
// a report — Broken list included — is byte-identical across the pruning
// modes.
func (s *sweep) settle(epoch int, desc string, v *cachedVerdict, how *int) {
	s.states++
	*how++
	inEpoch := epoch >= 0 && epoch < len(s.perEpoch)
	if inEpoch {
		s.perEpoch[epoch].States++
	}
	switch {
	case v.mountable:
		s.mountable++
	case v.fsckRepaired:
		s.repaired++
	default:
		s.broken = append(s.broken, desc)
		if inEpoch {
			s.perEpoch[epoch].Broken++
		}
	}
	if s.observe != nil {
		s.observe(v)
	}
}

// judge settles one constructed state — disk-tier lookup, else recover and
// store — and returns its verdict, or nil once the sweep has failed. fp is
// the state's fingerprint, read only when the Monkey prunes: on the
// incremental path the one the enumerator predicted and handed Seen just
// before building crash, on the scratch path an overlay scan — the same
// value either way, so neither hashes the blocks recovery writes.
func (s *sweep) judge(epoch int, desc string, fp uint64, crash *blockdev.Snapshot) *cachedVerdict {
	var key stateKey
	if s.mk.Prune != nil {
		key = s.key(epoch, fp)
	}
	v, tier, err := s.mk.judged(key, false, func() (*cachedVerdict, string, error) {
		return s.o.judge(crash, s.at(epoch))
	})
	if err != nil {
		s.fail(err)
		return nil
	}
	if tier != "" {
		s.settle(epoch, desc, v, &s.pruned)
	} else {
		s.settle(epoch, desc, v, &s.checked)
	}
	return v
}

// seen is the enumeration-time class lookup: a state whose fingerprint was
// already judged under the same expectation is settled from the cached
// verdict without ever being built. It returns that verdict, nil on a miss.
func (s *sweep) seen(epoch int, desc string, fp uint64) *cachedVerdict {
	v, ok := s.mk.Prune.classify(s.key(epoch, fp))
	if !ok {
		return nil
	}
	s.settle(epoch, desc, v, &s.classSkipped)
	return v
}

// scratchState is the cross-check engine's step: the state is built on a
// fresh snapshot of the base image, apply replaying all prior epochs and
// counting its writes, and judged with no enumeration-time pruning of any
// kind.
func (s *sweep) scratchState(epoch int, desc string, apply func(blockdev.Device) (int64, error)) bool {
	crash, n, err := scratchBuild(s.base, s.mk.Meter, apply)
	if err != nil {
		s.fail(err)
		return false
	}
	s.replayed += n
	var fp uint64
	if s.mk.Prune != nil {
		fp = crash.Fingerprint()
	}
	return s.judge(epoch, desc, fp, crash) != nil
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
