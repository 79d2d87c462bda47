// Package blockdev implements the storage substrate CrashMonkey is built on:
// an in-memory block device, a recording device that overlays a base image
// (the paper's first kernel module, §5.1 "Profiling workloads"), a
// copy-on-write snapshot device (the paper's second kernel module), and a
// replayer that constructs crash states from recorded IO (§5.1
// "Constructing crash states").
//
// Blocks are fixed-size (BlockSize). A write of a single block is atomic;
// the B3 approach never needs torn writes because crashes are simulated only
// at persistence points, i.e. crash state k = "replay every write with
// sequence number ≤ checkpoint k". An optional prefix replay mode is
// provided as an extension for mid-operation crash exploration (a limitation
// the paper explicitly leaves open, §4.4).
package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// BlockSize is the device block size in bytes (matching a 4 KiB page).
const BlockSize = 4096

// SectorSize is the legacy 512-byte sector used for st_blocks accounting.
const SectorSize = 512

// ErrOutOfRange is returned for IO beyond the device size.
var ErrOutOfRange = errors.New("blockdev: block out of range")

// Device is the minimal block-device interface the file systems target.
// ReadBlock must return a buffer the caller may retain (implementations
// copy). WriteBlock copies data out of the caller's buffer.
type Device interface {
	ReadBlock(n int64) ([]byte, error)
	WriteBlock(n int64, data []byte) error
	// Flush is a write barrier / cache flush. On the recording device it
	// tags the IO stream; on plain devices it is a no-op.
	Flush() error
	// NumBlocks is the device capacity in blocks.
	NumBlocks() int64
}

// BlockViewer is the optional zero-copy read extension: ReadBlockView
// returns a borrowed view of the block's contents that must not be modified
// and is only valid until the next write to the device. Devices that cannot
// lend views simply do not implement it; callers go through ReadView.
type BlockViewer interface {
	ReadBlockView(n int64) ([]byte, error)
}

// zeroBlock is the shared all-zero view lent for never-written blocks.
var zeroBlock = make([]byte, BlockSize)

// ReadView reads block n without copying when dev lends views, falling back
// to the allocating ReadBlock otherwise. The returned slice must be treated
// as read-only and not retained across writes to dev.
func ReadView(dev Device, n int64) ([]byte, error) {
	if v, ok := dev.(BlockViewer); ok {
		return v.ReadBlockView(n)
	}
	return dev.ReadBlock(n)
}

// ReadInto reads block n into buf (len >= BlockSize) without allocating.
func ReadInto(dev Device, n int64, buf []byte) error {
	v, err := ReadView(dev, n)
	if err != nil {
		return err
	}
	copy(buf[:BlockSize], v)
	return nil
}

// blockPool recycles 4 KiB block buffers between short-lived owners: the
// overlays of crash-state forks, which a bounded-reordering sweep
// constructs by the thousand and which die with the state, and the record
// buffers of profiles, which die with Recorder.Release. Pooling turns the
// per-write allocation into a pointer swap (the §6.5 allocation profile).
// It holds array pointers, which an interface stores as they are, where a
// slice would be boxed on every Put.
var blockPool = sync.Pool{New: func() any { return new([BlockSize]byte) }}

func poolGet() []byte { return blockPool.Get().(*[BlockSize]byte)[:] }

// poolPut hands b, a whole buffer poolGet returned, back to the pool.
func poolPut(b []byte) { blockPool.Put((*[BlockSize]byte)(b)) }

// snapshotPool recycles released tracked snapshots, their overlay and
// contrib tables and stale list emptied but grown, so a crash-state fork
// allocates nothing once the tables have room for a state's writes.
var snapshotPool = sync.Pool{New: func() any { return &Snapshot{overlay: make(map[int64][]byte)} }}

// snapshotPoison, when nonzero, is the byte a tracked snapshot's Release
// fills the snapshot with instead of recycling it, so a read after Release
// returns garbage instead of the state it expected (tests only; see
// poisonReleased).
var snapshotPoison byte

// BlockMeter counts the block-level IO a harness issues: the blockdev
// analogue of filesys.Meter. Attach one to the snapshots and replay cursors
// of a run (SetMeter) and replay-cost regressions become visible in -v
// campaign output and CI logs.
type BlockMeter struct {
	// BlocksReplayed counts writes applied while constructing crash states
	// (replay cursors and reorder enumeration).
	BlocksReplayed atomic.Int64
	// BlocksRead counts block reads served by metered devices, whether
	// copying or borrowed.
	BlocksRead atomic.Int64
	// BytesAllocated totals the fresh buffer bytes metered devices had to
	// allocate (copying reads plus first-touch overlay blocks that missed
	// the pool); pooled and borrowed IO does not count.
	BytesAllocated atomic.Int64
}

// Reset zeroes every counter.
func (m *BlockMeter) Reset() {
	m.BlocksReplayed.Store(0)
	m.BlocksRead.Store(0)
	m.BytesAllocated.Store(0)
}

// MemDisk is a dense in-memory block device.
type MemDisk struct {
	blocks [][]byte
}

// NewMemDisk returns a zero-filled in-memory device with n blocks.
func NewMemDisk(n int64) *MemDisk {
	return &MemDisk{blocks: make([][]byte, n)}
}

// memDiskPool recycles the block-pointer tables of short-lived devices. It
// once served every workload's base image; crashmonkey now formats one base
// per Monkey, which leaves the benchmark's probes (bench/probes.go) as the
// only caller of NewPooledMemDisk. Deleting the pool, NewPooledMemDisk and
// Recycle waits for the change to the benchmark that moves those probes off
// them.
var memDiskPool = sync.Pool{New: func() any { return new(MemDisk) }}

// NewPooledMemDisk returns a zero-filled in-memory device with n blocks,
// reusing a previously Recycled device's table when one fits. Reads and
// writes behave exactly like NewMemDisk's; call Recycle when the device
// dies to complete the cycle.
func NewPooledMemDisk(n int64) *MemDisk {
	d := memDiskPool.Get().(*MemDisk)
	if int64(cap(d.blocks)) >= n {
		d.blocks = d.blocks[:n]
	} else {
		d.blocks = make([][]byte, n)
	}
	return d
}

// Recycle returns the device's block buffers to the shared buffer pool and
// the device itself to the device pool. The device must not be used — by
// anything, including snapshots still based on it — afterwards.
func (d *MemDisk) Recycle() {
	for i, b := range d.blocks {
		if b != nil {
			poolPut(b)
			d.blocks[i] = nil
		}
	}
	memDiskPool.Put(d)
}

// ReadBlock implements Device. Unwritten blocks read as zeroes.
func (d *MemDisk) ReadBlock(n int64) ([]byte, error) {
	if n < 0 || n >= int64(len(d.blocks)) {
		return nil, fmt.Errorf("%w: read block %d of %d", ErrOutOfRange, n, len(d.blocks))
	}
	out := make([]byte, BlockSize)
	if b := d.blocks[n]; b != nil {
		copy(out, b)
	}
	return out, nil
}

// ReadBlockView implements BlockViewer: the returned slice aliases the
// device's storage (or the shared zero block) and must not be modified.
func (d *MemDisk) ReadBlockView(n int64) ([]byte, error) {
	if n < 0 || n >= int64(len(d.blocks)) {
		return nil, fmt.Errorf("%w: read block %d of %d", ErrOutOfRange, n, len(d.blocks))
	}
	if b := d.blocks[n]; b != nil {
		return b, nil
	}
	return zeroBlock, nil
}

// WriteBlock implements Device.
func (d *MemDisk) WriteBlock(n int64, data []byte) error {
	if n < 0 || n >= int64(len(d.blocks)) {
		return fmt.Errorf("%w: write block %d of %d", ErrOutOfRange, n, len(d.blocks))
	}
	if len(data) > BlockSize {
		return fmt.Errorf("blockdev: write of %d bytes exceeds block size", len(data))
	}
	b := d.blocks[n]
	if b == nil {
		b = poolGet()
		d.blocks[n] = b
	}
	// Copy-then-clear-tail stays correct when data aliases b itself (a
	// borrowed ReadBlockView of this very block written back).
	copy(b, data)
	clear(b[len(data):])
	return nil
}

// Flush implements Device (no-op for a RAM disk).
func (d *MemDisk) Flush() error { return nil }

// NumBlocks implements Device.
func (d *MemDisk) NumBlocks() int64 { return int64(len(d.blocks)) }

// Snapshot is a copy-on-write overlay over a base device. It provides the
// fast writable snapshots CrashMonkey uses to reset between crash states:
// resetting simply drops the modified blocks (§5.1, "since the snapshots are
// copy-on-write, resetting a snapshot ... means dropping the modified data
// blocks"). The base device is never written.
type Snapshot struct {
	base    Device
	overlay map[int64][]byte

	// tracked marks a snapshot that keeps its fingerprint (relative to the
	// chain's pristine bottom) in fp, hashing lazily, and whose overlay
	// buffers come from the pool and go back on Release, the struct and its
	// tables with them: contrib holds the contributions of settled overlay
	// blocks, and stale lists the overlay blocks written since their last
	// hash — exactly those with no contrib entry, each once. fp covers the
	// settled blocks; a stale block still counts with its parent's term
	// until settle hashes it. parent is the base when it is a snapshot too
	// (fork chains).
	contrib map[int64]uint64
	stale   []int64
	fp      uint64
	parent  *Snapshot
	meter   *BlockMeter
	tracked bool
}

// NewSnapshot returns a writable COW view of base. Its Fingerprint is
// computed by scanning the overlay on demand (the from-scratch path).
func NewSnapshot(base Device) *Snapshot {
	return &Snapshot{base: base, overlay: make(map[int64][]byte)}
}

// NewTrackedSnapshot returns a COW view of base that maintains its content
// fingerprint incrementally. A write only marks its block stale; reading
// the fingerprint hashes each block written since the last read once, so a
// fork whose fingerprint is never read — or whose later writes, like
// recovery's, come after the read — hashes nothing for them. When base is
// itself a tracked snapshot the fork seeds from the parent's fingerprint
// (settling the parent, so concurrent readers of its forks never mutate
// it), and the fork's Fingerprint stays relative to the chain's pristine
// bottom device — a crash-state fork over a rolling replay base
// fingerprints identically to a from-scratch replay onto the bottom
// device. The snapshot and its overlay buffers come from shared pools; call
// Release when the snapshot dies.
func NewTrackedSnapshot(base Device) *Snapshot {
	s := snapshotPool.Get().(*Snapshot)
	s.base, s.tracked = base, true
	if p, ok := base.(*Snapshot); ok {
		s.parent = p
		s.fp = p.Fingerprint()
		s.meter = p.meter
	}
	return s
}

// SetMeter attaches a BlockMeter; forks created over this snapshot inherit
// it.
func (s *Snapshot) SetMeter(m *BlockMeter) { s.meter = m }

// contribution returns the fingerprint contribution of block n in the
// snapshot's dirty set (searching the whole fork chain), and whether the
// block is dirty at all. Tracked snapshots settle first; untracked
// snapshots compute the contribution from the overlay on demand, so a
// tracked fork seeded over an untracked parent still adjusts overwrites
// correctly.
func (s *Snapshot) contribution(n int64) (uint64, bool) {
	if s.tracked {
		s.settle()
		if c, ok := s.contrib[n]; ok {
			return c, true
		}
	} else if b, ok := s.overlay[n]; ok {
		return BlockContribution(n, b), true
	}
	if s.parent != nil {
		return s.parent.contribution(n)
	}
	return 0, false
}

// term is block n's fingerprint term in s: its contribution, or 0 when the
// block is pristine down the chain. A nil s is the pristine bottom, so
// s.parent.term(n) is the block's term below the overlay.
func (s *Snapshot) term(n int64) uint64 {
	if s == nil {
		return 0
	}
	c, _ := s.contribution(n)
	return c
}

// settle hashes every stale block once, swapping its parent's term in fp
// for its own. A settled snapshot's settle writes nothing, so forks of one
// settled parent may read it concurrently.
func (s *Snapshot) settle() {
	if len(s.stale) == 0 {
		return
	}
	if s.contrib == nil {
		s.contrib = make(map[int64]uint64, len(s.stale))
	}
	for _, n := range s.stale {
		c := BlockContribution(n, s.overlay[n])
		s.fp ^= s.parent.term(n) ^ c
		s.contrib[n] = c
	}
	s.stale = s.stale[:0]
}

// ReadBlock implements Device, preferring overlay blocks. Each external
// read is metered once, no matter how deep the fork chain it traverses.
func (s *Snapshot) ReadBlock(n int64) ([]byte, error) {
	if s.meter != nil {
		s.meter.BlocksRead.Add(1)
		s.meter.BytesAllocated.Add(BlockSize)
	}
	return s.readBlock(n)
}

func (s *Snapshot) readBlock(n int64) ([]byte, error) {
	if b, ok := s.overlay[n]; ok {
		out := make([]byte, BlockSize)
		copy(out, b)
		return out, nil
	}
	if p, ok := s.base.(*Snapshot); ok {
		return p.readBlock(n)
	}
	return s.base.ReadBlock(n)
}

// ReadBlockView implements BlockViewer: overlay blocks are lent directly,
// clean blocks recurse into the base's view (falling back to a copying read
// only if some device in the chain cannot lend).
func (s *Snapshot) ReadBlockView(n int64) ([]byte, error) {
	if s.meter != nil {
		s.meter.BlocksRead.Add(1)
	}
	return s.readBlockView(n)
}

func (s *Snapshot) readBlockView(n int64) ([]byte, error) {
	if b, ok := s.overlay[n]; ok {
		return b, nil
	}
	if p, ok := s.base.(*Snapshot); ok {
		return p.readBlockView(n)
	}
	return ReadView(s.base, n)
}

// WriteBlock implements Device, writing only to the overlay. Overwrites
// reuse the existing overlay buffer, and tracked snapshots mark the block
// stale: an overwrite of a settled block takes its hashed term back out of
// the fingerprint, and the next read hashes the final contents once.
func (s *Snapshot) WriteBlock(n int64, data []byte) error {
	if n < 0 || n >= s.base.NumBlocks() {
		return fmt.Errorf("%w: write block %d", ErrOutOfRange, n)
	}
	if len(data) > BlockSize {
		return fmt.Errorf("blockdev: write of %d bytes exceeds block size", len(data))
	}
	b, ok := s.overlay[n]
	if !ok {
		if s.tracked {
			b = poolGet()
		} else {
			b = make([]byte, BlockSize)
			if s.meter != nil {
				s.meter.BytesAllocated.Add(BlockSize)
			}
		}
		s.overlay[n] = b
	}
	// Copy-then-clear-tail: correct when data aliases b (a borrowed view of
	// this block written back), and pooled buffers get their stale tail
	// cleared by the same stroke.
	copy(b, data)
	clear(b[len(data):])
	if s.tracked {
		if c, settled := s.contrib[n]; settled {
			s.fp ^= c ^ s.parent.term(n)
			delete(s.contrib, n)
			s.stale = append(s.stale, n)
		} else if !ok {
			s.stale = append(s.stale, n)
		}
	}
	return nil
}

// Flush implements Device.
func (s *Snapshot) Flush() error { return nil }

// NumBlocks implements Device.
func (s *Snapshot) NumBlocks() int64 { return s.base.NumBlocks() }

// Reset drops every modified block, returning the view to the base image.
// Tracked snapshots stay tracked: the fingerprint re-seeds from the parent.
func (s *Snapshot) Reset() {
	if !s.tracked {
		s.overlay = make(map[int64][]byte)
		return
	}
	s.drop()
	s.fp = 0
	if s.parent != nil {
		s.fp = s.parent.Fingerprint()
	}
}

// drop hands a tracked snapshot's overlay buffers back to the shared pool
// and empties its tables, keeping their room.
func (s *Snapshot) drop() {
	for _, b := range s.overlay {
		poolPut(b)
	}
	clear(s.overlay)
	clear(s.contrib)
	s.stale = s.stale[:0]
}

// Release ends the snapshot's life. A tracked snapshot hands its overlay
// buffers back to the shared pool and is itself recycled by the next
// NewTrackedSnapshot, its tables emptied: neither it nor any view it lent
// may be used afterwards (crash-state forks call it once the verdict is
// recorded). Untracked snapshots, whose buffers are not pooled, only drop
// their references. A second Release is a no-op.
func (s *Snapshot) Release() {
	if s.base == nil {
		return // released and recycled already
	}
	if !s.tracked {
		s.overlay = nil
		return
	}
	if snapshotPoison != 0 {
		s.poisonReleased()
		return
	}
	s.drop()
	*s = Snapshot{overlay: s.overlay, contrib: s.contrib, stale: s.stale}
	snapshotPool.Put(s)
}

// poisonReleased is Release under the snapshotPoison hook: every overlay
// buffer is filled with the poison byte and kept, out of the pool, and the
// snapshot is rebased onto a device whose every block is poison, so each
// block a late reader asks for is garbage. Untracked, a second Release
// only drops the overlay.
func (s *Snapshot) poisonReleased() {
	poison := bytes.Repeat([]byte{snapshotPoison}, BlockSize)
	for _, b := range s.overlay {
		copy(b, poison)
	}
	s.base = poisonDevice{blocks: s.NumBlocks(), block: poison}
	s.parent, s.tracked = nil, false
}

// poisonDevice is the base of a poisoned released snapshot: every block
// reads as its one poison block, and nothing may be written to it.
type poisonDevice struct {
	blocks int64
	block  []byte
}

func (d poisonDevice) ReadBlock(int64) ([]byte, error)     { return bytes.Clone(d.block), nil }
func (d poisonDevice) ReadBlockView(int64) ([]byte, error) { return d.block, nil }
func (d poisonDevice) Flush() error                        { return nil }
func (d poisonDevice) NumBlocks() int64                    { return d.blocks }

func (d poisonDevice) WriteBlock(n int64, _ []byte) error {
	return fmt.Errorf("blockdev: write block %d under a released snapshot", n)
}

// DirtyBlocks returns the overlay block numbers in ascending order.
func (s *Snapshot) DirtyBlocks() []int64 {
	out := make([]int64, 0, len(s.overlay))
	for n := range s.overlay {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
