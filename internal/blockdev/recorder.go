package blockdev

import "fmt"

// RecordKind distinguishes entries in the recorded IO stream.
type RecordKind uint8

const (
	// RecWrite is a block write issued by the file system.
	RecWrite RecordKind = iota
	// RecFlush is a cache-flush barrier.
	RecFlush
	// RecCheckpoint marks the completion of a persistence operation
	// (fsync/fdatasync/msync/sync). It corresponds to the paper's "empty
	// block IO request with a special flag" that correlates persistence
	// operations with the low-level block IO stream (§5.1).
	RecCheckpoint
)

// Record is one entry of the profiled IO stream.
//
// A RecWrite's Data aliases a buffer the Recorder lent from the shared block
// pool: it is read-only, and it must not be used after the owning
// Recorder's Release (for a profile, Profile.Release), which hands the
// buffer back for the next state or profile to overwrite.
type Record struct {
	Seq   int64
	Kind  RecordKind
	Block int64  // valid for RecWrite
	Data  []byte // valid for RecWrite; read-only, owned by the Recorder
	// Checkpoint is the 1-based persistence-point number, valid for
	// RecCheckpoint.
	Checkpoint int
}

// Recorder is the profiling device, the paper's wrapper block device: a
// copy-on-write view of a base device that records every write, flush, and
// checkpoint with a global sequence number. It never writes the base. Each
// write is copied once, into a pooled buffer that is at the same time the
// record's Data and, until the block is written again, the block's read
// view; reads of blocks never written fall through to the base.
type Recorder struct {
	base Device
	// blocks maps each written block to its latest recorded buffer
	// (BlockSize bytes, zero-padded past the record's Data).
	blocks      map[int64][]byte
	log         []Record
	seq         int64
	checkpoints int
}

// recordPoison, when nonzero, is the byte Release fills every record buffer
// with as it hands the buffer back to the pool, so a reader that outlives
// its profile sees garbage instead of the data it expected (tests only).
var recordPoison byte

// NewRecorder returns a recording view of base. Call Release when the
// recorded log is no longer needed.
func NewRecorder(base Device) *Recorder {
	return &Recorder{base: base, blocks: make(map[int64][]byte)}
}

// ReadBlock implements Device (reads are not recorded; crash states are a
// function of writes only).
func (r *Recorder) ReadBlock(n int64) ([]byte, error) {
	if b, ok := r.blocks[n]; ok {
		out := make([]byte, BlockSize)
		copy(out, b)
		return out, nil
	}
	return r.base.ReadBlock(n)
}

// ReadBlockView implements BlockViewer: a written block lends its latest
// record buffer, any other block the base's view. Record buffers are never
// overwritten, so a view stays valid until Release.
func (r *Recorder) ReadBlockView(n int64) ([]byte, error) {
	if b, ok := r.blocks[n]; ok {
		return b, nil
	}
	return ReadView(r.base, n)
}

// WriteBlock implements Device, recording the write into a pooled buffer.
func (r *Recorder) WriteBlock(n int64, data []byte) error {
	if n < 0 || n >= r.base.NumBlocks() {
		return fmt.Errorf("%w: write block %d", ErrOutOfRange, n)
	}
	if len(data) > BlockSize {
		return fmt.Errorf("blockdev: write of %d bytes exceeds block size", len(data))
	}
	b := poolGet()
	copy(b, data)
	clear(b[len(data):])
	r.blocks[n] = b
	r.seq++
	r.log = append(r.log, Record{Seq: r.seq, Kind: RecWrite, Block: n, Data: b[:len(data)]})
	return nil
}

// Flush implements Device, recording the barrier.
func (r *Recorder) Flush() error {
	r.seq++
	r.log = append(r.log, Record{Seq: r.seq, Kind: RecFlush})
	return nil
}

// NumBlocks implements Device.
func (r *Recorder) NumBlocks() int64 { return r.base.NumBlocks() }

// Checkpoint inserts a persistence-point marker into the stream and returns
// its 1-based number.
func (r *Recorder) Checkpoint() int {
	r.checkpoints++
	r.seq++
	r.log = append(r.log, Record{Seq: r.seq, Kind: RecCheckpoint, Checkpoint: r.checkpoints})
	return r.checkpoints
}

// Checkpoints returns how many persistence points were recorded.
func (r *Recorder) Checkpoints() int { return r.checkpoints }

// Log returns the recorded stream. The caller must not modify it, and must
// not use it after Release.
func (r *Recorder) Log() []Record { return r.log }

// DirtyBytes reports the memory the written blocks' latest buffers hold:
// the copy-on-write footprint of the workload (§6.5), proportional to the
// data it modified, not to the device size.
func (r *Recorder) DirtyBytes() int64 { return int64(len(r.blocks)) * BlockSize }

// Release hands every record buffer back to the shared pool, where the
// next profile or crash state overwrites it. Neither the recorder nor its
// log, any Record.Data, or any view it lent may be used afterwards; a
// second Release is a no-op.
func (r *Recorder) Release() {
	if r.blocks == nil {
		return
	}
	for _, rec := range r.log {
		if rec.Kind != RecWrite {
			continue
		}
		b := rec.Data[:BlockSize]
		if recordPoison != 0 {
			for i := range b {
				b[i] = recordPoison
			}
		}
		poolPut(b)
	}
	r.blocks = nil
}

// WritesRecorded reports the number of write records (profiling statistics).
func (r *Recorder) WritesRecorded() int {
	n := 0
	for _, rec := range r.log {
		if rec.Kind == RecWrite {
			n++
		}
	}
	return n
}

// ReplayToCheckpoint applies every recorded write with sequence number up to
// and including checkpoint cp onto dst, returning how many writes it
// replayed. This constructs the paper's crash state from scratch: "the state
// of the storage just after the persistence-related call completed on the
// storage device". Sweeps prefer a ReplayCursor, which replays each write
// once across a whole ascending sweep; this path remains the cross-check
// reference the incremental construction is verified against.
func ReplayToCheckpoint(dst Device, log []Record, cp int) (int64, error) {
	if cp < 1 {
		return 0, fmt.Errorf("blockdev: invalid checkpoint %d", cp)
	}
	var applied int64
	for _, rec := range log {
		switch rec.Kind {
		case RecWrite:
			if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
				return applied, fmt.Errorf("blockdev: replay write seq %d: %w", rec.Seq, err)
			}
			applied++
		case RecCheckpoint:
			if rec.Checkpoint == cp {
				return applied, nil
			}
		case RecFlush:
			// Flushes order writes but change no block contents.
		}
	}
	return applied, fmt.Errorf("blockdev: checkpoint %d not found in IO log", cp)
}

// ReplayPrefix applies the first n write records onto dst, ignoring
// checkpoints. This is the mid-operation crash-state extension (§4.4
// limitation 2): it lets a caller explore states where only a prefix of the
// IO between persistence points reached the disk.
func ReplayPrefix(dst Device, log []Record, n int) (applied int, err error) {
	for _, rec := range log {
		if rec.Kind != RecWrite {
			continue
		}
		if applied >= n {
			return applied, nil
		}
		if err := dst.WriteBlock(rec.Block, rec.Data); err != nil {
			return applied, fmt.Errorf("blockdev: replay write seq %d: %w", rec.Seq, err)
		}
		applied++
	}
	return applied, nil
}

// CountWritesBetweenCheckpoints reports, for each checkpoint k (1-based
// index k-1 in the result), how many writes occurred after checkpoint k-1 up
// to checkpoint k. Used by the ablation benchmarks to quantify how much
// larger the crash-state space would be with mid-operation crashes (the
// paper's 2^n argument, §4.1).
func CountWritesBetweenCheckpoints(log []Record) []int {
	var out []int
	n := 0
	for _, rec := range log {
		switch rec.Kind {
		case RecWrite:
			n++
		case RecCheckpoint:
			out = append(out, n)
			n = 0
		case RecFlush:
			// Flushes order writes but change no block contents.
		}
	}
	return out
}
