package blockdev

import "fmt"

// ReplayCursor constructs checkpoint crash states incrementally. The paper's
// kernel modules make crash-state construction cheap by resetting
// copy-on-write snapshots (§5.1); the from-scratch software analogue —
// replaying the whole log prefix onto a fresh snapshot per state — costs
// O(C·W) replayed writes over a C-checkpoint sweep. The cursor instead
// advances one rolling tracked snapshot write-by-write through the log, so
// a full ascending sweep replays every write exactly once, and hands out a
// per-state COW fork: recovery and checker writes land in the fork, never
// in the rolling base, keeping later states uncontaminated.
//
// The rolling snapshot is tracked, so reading the fingerprint of the state
// at the cursor hashes only the blocks written since the previous read
// instead of re-hashing the dirty set per state; a fresh fork over it
// inherits the value, and its own writes are hashed only if it is read
// again.
type ReplayCursor struct {
	base    Device
	log     []Record
	rolling *Snapshot
	// pos indexes the next unapplied record; cp is the last checkpoint the
	// cursor consumed (0 = none).
	pos      int
	cp       int
	replayed int64
	meter    *BlockMeter
}

// NewReplayCursor returns a cursor over log positioned before the first
// record. base must stay immutable for the cursor's lifetime (it is the
// pristine post-mkfs image in CrashMonkey's use).
func NewReplayCursor(base Device, log []Record) *ReplayCursor {
	return &ReplayCursor{base: base, log: log, rolling: NewTrackedSnapshot(base)}
}

// SetMeter attaches a BlockMeter: every replayed write and every read served
// by the rolling snapshot (and forks over it) is counted.
func (c *ReplayCursor) SetMeter(m *BlockMeter) {
	c.meter = m
	c.rolling.SetMeter(m)
}

// ReplayedWrites reports the writes the cursor has applied over its
// lifetime, rewinds included — the metered construction cost.
func (c *ReplayCursor) ReplayedWrites() int64 { return c.replayed }

// Checkpoint reports the persistence point the cursor is positioned at
// (0 = before the first).
func (c *ReplayCursor) Checkpoint() int { return c.cp }

// Fingerprint is the content hash of the crash state at the cursor. It
// hashes the blocks the seeks since the previous read wrote, once each.
func (c *ReplayCursor) Fingerprint() uint64 { return c.rolling.Fingerprint() }

// rewind resets the rolling snapshot to the pristine base.
func (c *ReplayCursor) rewind() {
	c.rolling.Release()
	c.rolling = NewTrackedSnapshot(c.base)
	c.rolling.SetMeter(c.meter)
	c.pos, c.cp = 0, 0
}

// SeekCheckpoint advances the rolling snapshot to persistence point cp
// (1-based), replaying only the writes between the cursor's position and the
// checkpoint. Seeking backwards rewinds to the pristine base first (ascending
// sweeps — the campaign order — never rewind). Returns the number of writes
// replayed by this seek.
func (c *ReplayCursor) SeekCheckpoint(cp int) (int64, error) {
	if cp < 1 {
		return 0, fmt.Errorf("blockdev: invalid checkpoint %d", cp)
	}
	if cp < c.cp {
		c.rewind()
	}
	if cp == c.cp {
		return 0, nil
	}
	var applied int64
	for ; c.pos < len(c.log); c.pos++ {
		rec := c.log[c.pos]
		switch rec.Kind {
		case RecWrite:
			if err := c.rolling.WriteBlock(rec.Block, rec.Data); err != nil {
				return applied, fmt.Errorf("blockdev: replay write seq %d: %w", rec.Seq, err)
			}
			applied++
		case RecCheckpoint:
			c.cp = rec.Checkpoint
			if rec.Checkpoint == cp {
				c.pos++
				c.replayed += applied
				if c.meter != nil {
					c.meter.BlocksReplayed.Add(applied)
				}
				return applied, nil
			}
		case RecFlush:
			// Flushes order writes but change no block contents.
		}
	}
	c.replayed += applied
	if c.meter != nil {
		c.meter.BlocksReplayed.Add(applied)
	}
	return applied, fmt.Errorf("blockdev: checkpoint %d not found in IO log", cp)
}

// Release returns the rolling snapshot's overlay buffers to the shared
// pool. The cursor (and every fork still reading through it) must not be
// used afterwards.
func (c *ReplayCursor) Release() {
	c.rolling.Release()
}

// Fork returns the crash state at the cursor as a COW fork of the rolling
// snapshot: writes (file-system recovery, checker probes) stay in the fork,
// and its Fingerprint is the rolling state's until the fork is written.
// Call Release on the fork once the state's verdict is recorded.
func (c *ReplayCursor) Fork() *Snapshot {
	return NewTrackedSnapshot(c.rolling)
}
