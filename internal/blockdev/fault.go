package blockdev

import (
	"fmt"
	"sort"
	"strings"
)

// Orthogonal fault axis for crash-state construction. The bounded-reordering
// model (epoch.go) assumes every block write either lands whole or not at
// all; real disks additionally tear writes at sector granularity, corrupt
// unsynced blocks (zeroes from a dropped cache line, bit flips from a failing
// medium), and misdirect a write onto the wrong LBA. Each of those is
// modelled here as its own deterministic, exactly-countable iterator with the
// same contract as ForEachReorderState: stable Descs, a scratch applier, and
// an incremental tracked-snapshot variant whose forks carry O(1)
// fingerprints, so the prune/corpus/shard/merge layers compose unchanged.
//
// Only writes that are still unsynced at the crash point are faulted: writes
// of earlier, barrier-closed epochs are durable by definition (their flush or
// checkpoint completed), so faulting them would construct states a real
// device crash can never expose.

// FaultKind selects one fault axis.
type FaultKind int

const (
	// FaultTorn tears one in-flight block write at sector granularity: the
	// leading sectors of the write reach the disk, the tail keeps the
	// block's previous contents.
	FaultTorn FaultKind = iota
	// FaultCorrupt replaces the target block of one unsynced write with
	// zeroes or its bitwise complement after the epoch's writes land.
	FaultCorrupt
	// FaultMisdirect lands one unsynced write on the next in-range block
	// instead of its own, leaving the intended block stale.
	FaultMisdirect

	// NumFaultKinds is the number of fault kinds, for per-kind accounting
	// arrays indexed by FaultKind.
	NumFaultKinds int = iota
)

// String returns the kind's canonical name ("torn", "corrupt", "misdirect").
func (k FaultKind) String() string {
	switch k {
	case FaultTorn:
		return "torn"
	case FaultCorrupt:
		return "corrupt"
	case FaultMisdirect:
		return "misdirect"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// ParseFaultKind parses a canonical fault-kind name.
func ParseFaultKind(s string) (FaultKind, error) {
	switch s {
	case "torn":
		return FaultTorn, nil
	case "corrupt":
		return FaultCorrupt, nil
	case "misdirect", "misdir":
		return FaultMisdirect, nil
	}
	return 0, fmt.Errorf("blockdev: unknown fault kind %q (want torn, corrupt, misdirect)", s)
}

// ParseFaultKinds parses a comma-separated fault-kind list
// ("torn,corrupt,misdirect"), dropping duplicates and empty elements.
func ParseFaultKinds(s string) ([]FaultKind, error) {
	var out []FaultKind
	var seen [NumFaultKinds]bool
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := ParseFaultKind(part)
		if err != nil {
			return nil, err
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// FaultModel selects which fault sweeps a campaign runs and the torn-write
// granularity. The zero value disables the fault axis entirely.
type FaultModel struct {
	// Kinds lists the fault kinds to sweep, without duplicates.
	Kinds []FaultKind
	// SectorSize is the torn-write granularity in bytes; it must be positive
	// and divide BlockSize. 0 means the 512-byte default (SectorSize).
	SectorSize int
}

// Enabled reports whether any fault sweep is configured.
func (m FaultModel) Enabled() bool { return len(m.Kinds) > 0 }

// Sector returns the torn-write granularity with the default applied.
func (m FaultModel) Sector() int {
	if m.SectorSize == 0 {
		return SectorSize
	}
	return m.SectorSize
}

// Validate checks that every kind is known and appears once and that the
// sector size divides the block size.
func (m FaultModel) Validate() error {
	var seen [NumFaultKinds]bool
	for _, k := range m.Kinds {
		if k < 0 || int(k) >= NumFaultKinds {
			return fmt.Errorf("blockdev: unknown fault kind %d", int(k))
		}
		if seen[k] {
			return fmt.Errorf("blockdev: duplicate fault kind %s", k)
		}
		seen[k] = true
	}
	_, err := sectorsPerBlock(m.Sector())
	return err
}

// Canonical returns the model with kinds sorted into enum order (the order
// sweeps run and accounting renders) and the sector default applied, so
// equivalent configurations fingerprint identically.
func (m FaultModel) Canonical() FaultModel {
	kinds := append([]FaultKind(nil), m.Kinds...)
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return FaultModel{Kinds: kinds, SectorSize: m.Sector()}
}

// String renders the kind list ("torn+corrupt+misdirect"); empty when the
// axis is disabled. Used in config fingerprints.
func (m FaultModel) String() string {
	parts := make([]string, len(m.Kinds))
	for i, k := range m.Kinds {
		parts[i] = k.String()
	}
	return strings.Join(parts, "+")
}

// sectorsPerBlock validates a torn-write granularity and returns the number
// of sectors per block.
func sectorsPerBlock(sectorSize int) (int, error) {
	if sectorSize <= 0 || sectorSize > BlockSize || BlockSize%sectorSize != 0 {
		return 0, fmt.Errorf("blockdev: sector size %d must divide the %d-byte block size",
			sectorSize, BlockSize)
	}
	return BlockSize / sectorSize, nil
}

// FaultState identifies one crash state of a fault sweep. Every write of the
// epochs before Epoch reached the disk; the in-flight epoch landed per Kind:
// its first Applied writes in order, with the write at index Write (when
// >= 0) faulted as Sectors/Zeroed describe.
type FaultState struct {
	// Kind is the fault axis the state belongs to.
	Kind FaultKind
	// Epoch indexes Epochs(log); -1 for the empty state of a writeless log.
	Epoch int
	// Write is the index (into the epoch's Writes) of the faulted write, or
	// -1 for the fault-free prefix and final states.
	Write int
	// Applied is the number of the epoch's writes that landed whole and in
	// order before the fault.
	Applied int
	// Sectors is the number of leading sectors of the faulted write that
	// reached the disk (torn states only; 1..sectorsPerBlock-1).
	Sectors int
	// Zeroed selects the corruption variant: true replaces the block with
	// zeroes, false with its bitwise complement (corrupt states only).
	Zeroed bool
	// Desc is a stable human-readable state id ("e1-w2-torn3", "e0-w1-zero",
	// "e0-w1-flip", "e2-w0-mis"). Fault-free prefix and final states reuse
	// the reorder vocabulary ("e1-pfx2", "e2-full", "empty") because they
	// are the same device states.
	Desc string
}

// ForEachFaultState enumerates the crash-state space of one fault kind in a
// deterministic order. For each epoch E with n writes it yields, per write j:
//
//   - FaultTorn: the in-order prefix of j writes ("e%d-pfx%d" — present so a
//     torn sweep subsumes the k=0 prefix sweep and, at sectorSize ==
//     BlockSize, degenerates to exactly it), then the prefix plus the first
//     s sectors of write j for s = 1..sectorsPerBlock-1 ("e%d-w%d-torn%d");
//   - FaultCorrupt: the full epoch with write j's block then zeroed
//     ("e%d-w%d-zero") and bit-flipped ("e%d-w%d-flip");
//   - FaultMisdirect: the full epoch with write j landing one block to the
//     right, wrapping in range ("e%d-w%d-mis");
//
// and after the last epoch one final fully-replayed state. fn receives the
// state descriptor and an applier that replays the state onto a destination
// device; fn returning false stops the sweep. FaultStateCount returns the
// exact number of states enumerated.
func ForEachFaultState(log []Record, kind FaultKind, sectorSize int,
	fn func(st FaultState, apply func(dst Device) error) bool) error {

	spb, err := sectorsPerBlock(sectorSize)
	if err != nil {
		return err
	}
	if kind < 0 || int(kind) >= NumFaultKinds {
		return fmt.Errorf("blockdev: unknown fault kind %d", int(kind))
	}
	epochs := Epochs(log)
	emit := func(st FaultState) bool {
		return fn(st, func(dst Device) error { return applyFaultState(dst, epochs, st, sectorSize) })
	}
	for _, ep := range epochs {
		n := len(ep.Writes)
		switch kind {
		case FaultTorn:
			for j := 0; j < n; j++ {
				if !emit(FaultState{Kind: kind, Epoch: ep.Index, Write: -1, Applied: j,
					Desc: fmt.Sprintf("e%d-pfx%d", ep.Index, j)}) {
					return nil
				}
				for s := 1; s < spb; s++ {
					if !emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: j, Sectors: s,
						Desc: fmt.Sprintf("e%d-w%d-torn%d", ep.Index, j, s)}) {
						return nil
					}
				}
			}
		case FaultCorrupt:
			for j := 0; j < n; j++ {
				for _, zeroed := range []bool{true, false} {
					variant := "flip"
					if zeroed {
						variant = "zero"
					}
					if !emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: n, Zeroed: zeroed,
						Desc: fmt.Sprintf("e%d-w%d-%s", ep.Index, j, variant)}) {
						return nil
					}
				}
			}
		case FaultMisdirect:
			for j := 0; j < n; j++ {
				if !emit(FaultState{Kind: kind, Epoch: ep.Index, Write: j, Applied: n,
					Desc: fmt.Sprintf("e%d-w%d-mis", ep.Index, j)}) {
					return nil
				}
			}
		}
	}
	if len(epochs) == 0 {
		emit(FaultState{Kind: kind, Epoch: -1, Write: -1, Desc: "empty"})
		return nil
	}
	last := epochs[len(epochs)-1]
	emit(FaultState{Kind: kind, Epoch: last.Index, Write: -1, Applied: len(last.Writes),
		Desc: fmt.Sprintf("e%d-full", last.Index)})
	return nil
}

// FaultStateCount returns the number of states ForEachFaultState enumerates
// for log, without constructing any of them. It returns
// ErrStateCountOverflow when the exact count does not fit in int64.
func FaultStateCount(log []Record, kind FaultKind, sectorSize int) (int64, error) {
	spb, err := sectorsPerBlock(sectorSize)
	if err != nil {
		return 0, err
	}
	if kind < 0 || int(kind) >= NumFaultKinds {
		return 0, fmt.Errorf("blockdev: unknown fault kind %d", int(kind))
	}
	return faultCountForSizes(epochSizes(Epochs(log)), kind, spb)
}

// writeTorn lands the first sectors*sectorSize bytes of rec over the current
// contents of its block: the prefix of the write that reached the disk
// before the crash. Writes shorter than a block persist as zero-padded full
// blocks (Device semantics), so the torn prefix beyond the data is zeroes.
func writeTorn(dst Device, rec Record, sectors, sectorSize int) error {
	buf := poolGet()
	defer blockPool.Put(buf)
	if err := ReadInto(dst, rec.Block, buf); err != nil {
		return err
	}
	n := sectors * sectorSize
	copied := copy(buf[:n], rec.Data)
	clear(buf[copied:n])
	return dst.WriteBlock(rec.Block, buf)
}

// writeCorrupt replaces rec's block with zeroes or its bitwise complement.
func writeCorrupt(dst Device, rec Record, zeroed bool) error {
	buf := poolGet()
	defer blockPool.Put(buf)
	if zeroed {
		clear(buf)
		return dst.WriteBlock(rec.Block, buf)
	}
	if err := ReadInto(dst, rec.Block, buf); err != nil {
		return err
	}
	for i := range buf {
		buf[i] = ^buf[i]
	}
	return dst.WriteBlock(rec.Block, buf)
}

// misdirectTarget is the wrong-but-in-range block a misdirected write lands
// on: the next block, wrapping at the end of the device.
func misdirectTarget(dst Device, rec Record) int64 {
	return (rec.Block + 1) % dst.NumBlocks()
}

// applyFaultState replays st onto dst: all writes of the epochs before
// st.Epoch, then the in-flight epoch per the state's kind and fields.
func applyFaultState(dst Device, epochs []Epoch, st FaultState, sectorSize int) error {
	write := func(rec Record) error {
		if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
			return fmt.Errorf("blockdev: fault replay write seq %d: %w", rec.Seq, err)
		}
		return nil
	}
	for e := 0; e < st.Epoch && e < len(epochs); e++ {
		for _, rec := range epochs[e].Writes {
			if err := write(rec); err != nil {
				return err
			}
		}
	}
	if st.Epoch < 0 || st.Epoch >= len(epochs) {
		return nil
	}
	ep := epochs[st.Epoch]
	if st.Applied > len(ep.Writes) {
		return fmt.Errorf("blockdev: fault state %s applies %d of %d writes",
			st.Desc, st.Applied, len(ep.Writes))
	}
	for i, rec := range ep.Writes[:st.Applied] {
		if st.Kind == FaultMisdirect && i == st.Write {
			if err := dst.WriteBlock(misdirectTarget(dst, rec), rec.Data); err != nil {
				return fmt.Errorf("blockdev: fault replay write seq %d: %w", rec.Seq, err)
			}
			continue
		}
		if err := write(rec); err != nil {
			return err
		}
	}
	if st.Write < 0 {
		return nil
	}
	switch st.Kind {
	case FaultTorn:
		return writeTorn(dst, ep.Writes[st.Write], st.Sectors, sectorSize)
	case FaultCorrupt:
		return writeCorrupt(dst, ep.Writes[st.Write], st.Zeroed)
	case FaultMisdirect:
		return nil // already redirected in the replay loop above
	default:
		return fmt.Errorf("blockdev: fault state %s has unknown kind %d", st.Desc, int(st.Kind))
	}
}
