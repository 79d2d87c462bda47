// Package diskfmt is the part of a file system under test that is the same
// for all five backends in this repository. On disk: checksummed
// length-prefixed blobs spanning blocks, dual-slot generation-stamped
// superblocks, one dual-slot image checkpoint and one generation/sequence
// framed record log (this file). In memory: one mounted base that implements
// the whole POSIX-like filesys.MountedFS over an fstree.Tree (mounted.go).
// Keeping those common lets each backend be only the thing the B3 study shows
// actually matters for crash consistency: *which* state it persists at each
// persistence point (a Strategy), how it frames that state (a record codec)
// and how recovery interprets it.
package diskfmt

import (
	"fmt"
	"sync"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fstree"
)

// Checksum is FNV-1a over the payload; adequate for detecting torn or stale
// blobs produced by crash-state replay.
func Checksum(data []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Superblock is the generation-stamped root of a file system. The slot
// written alternates with the generation (gen%2), so a failed superblock
// write can never destroy the previous valid root.
type Superblock struct {
	Magic      uint32
	Gen        uint64
	ImageStart int64
	ImageLen   int64
}

// WriteSuperblock stores sb in slot gen%2.
func WriteSuperblock(dev blockdev.Device, sb Superblock) error {
	e := codec.NewEncoder(64)
	e.Uint32(sb.Magic)
	e.Uint64(sb.Gen)
	e.Int64(sb.ImageStart)
	e.Int64(sb.ImageLen)
	body := append([]byte(nil), e.Bytes()...)
	e.Uint64(Checksum(body))
	return dev.WriteBlock(int64(sb.Gen%2), e.Bytes())
}

func readSuperblock(dev blockdev.Device, slot int64, magic uint32) (Superblock, bool) {
	blk, err := blockdev.ReadView(dev, slot)
	if err != nil {
		return Superblock{}, false
	}
	d := codec.NewDecoder(blk)
	if d.Uint32() != magic {
		return Superblock{}, false
	}
	sb := Superblock{Magic: magic, Gen: d.Uint64(), ImageStart: d.Int64(), ImageLen: d.Int64()}
	e := codec.NewEncoder(64)
	e.Uint32(sb.Magic)
	e.Uint64(sb.Gen)
	e.Int64(sb.ImageStart)
	e.Int64(sb.ImageLen)
	if d.Uint64() != Checksum(e.Bytes()) || d.Err() != nil {
		return Superblock{}, false
	}
	return sb, true
}

// LoadSuperblock returns the valid slot with the highest generation.
func LoadSuperblock(dev blockdev.Device, magic uint32) (Superblock, error) {
	a, okA := readSuperblock(dev, 0, magic)
	b, okB := readSuperblock(dev, 1, magic)
	switch {
	case okA && okB:
		if a.Gen >= b.Gen {
			return a, nil
		}
		return b, nil
	case okA:
		return a, nil
	case okB:
		return b, nil
	}
	return Superblock{}, fmt.Errorf("diskfmt: no valid superblock: %w", filesys.ErrCorrupted)
}

// encoders recycles the buffers images and log records are encoded into.
// An encoded payload never outlives the write that consumes it: every
// blockdev.Device.WriteBlock copies its input.
var encoders = sync.Pool{New: func() any { return codec.NewEncoder(4096) }}

// getEncoder returns an empty pooled encoder; Put it back when done.
func getEncoder() *codec.Encoder {
	e := encoders.Get().(*codec.Encoder)
	e.Reset()
	return e
}

// BlobBlocks returns the number of blocks WriteBlob will consume for a
// payload of the given length, so callers can bound-check a region before
// writing anything into it.
func BlobBlocks(payloadLen int) int64 {
	e := codec.NewEncoder(32)
	e.Uint32(0)
	e.Uint64(0)
	e.Uint64(0)
	return (int64(len(e.Bytes())) + int64(payloadLen) + blockdev.BlockSize - 1) / blockdev.BlockSize
}

// WriteBlob stores a checksummed, length-prefixed payload at startBlock and
// returns the number of blocks consumed. Only the first block (header plus
// the head of the payload) is built; the rest are written straight from
// sub-slices of payload, which WriteBlock copies.
func WriteBlob(dev blockdev.Device, startBlock int64, magic uint32, payload []byte) (int64, error) {
	// 32 bytes bound the three varints of the header.
	e := codec.NewEncoder(min(len(payload)+32, blockdev.BlockSize))
	e.Uint32(magic)
	e.Uint64(uint64(len(payload)))
	e.Uint64(Checksum(payload))
	headerLen := e.Len()
	head := min(len(payload), blockdev.BlockSize-headerLen)
	e.Raw(payload[:head])
	if err := dev.WriteBlock(startBlock, e.Bytes()); err != nil {
		return 0, err
	}
	blocks := int64(1)
	for rest := payload[head:]; len(rest) > 0; blocks++ {
		n := min(len(rest), blockdev.BlockSize)
		if err := dev.WriteBlock(startBlock+blocks, rest[:n]); err != nil {
			return 0, err
		}
		rest = rest[n:]
	}
	return blocks, nil
}

// ReadBlob loads a blob written by WriteBlob, verifying magic and checksum.
// Blocks are read through borrowed views (no per-block allocation); every
// viewed byte is copied into the payload before the function returns. The
// payload is fresh and never reused, so decoders may alias it
// (fstree.DecodeNode does).
func ReadBlob(dev blockdev.Device, startBlock int64, magic uint32) ([]byte, int64, error) {
	head, err := blockdev.ReadView(dev, startBlock)
	if err != nil {
		return nil, 0, err
	}
	d := codec.NewDecoder(head)
	if d.Uint32() != magic {
		return nil, 0, fmt.Errorf("diskfmt: bad blob magic at block %d: %w", startBlock, filesys.ErrCorrupted)
	}
	n := d.Uint64()
	sum := d.Uint64()
	if d.Err() != nil {
		return nil, 0, fmt.Errorf("diskfmt: bad blob header: %w", filesys.ErrCorrupted)
	}
	headerLen := blockdev.BlockSize - d.Remaining()
	total := int64(headerLen) + int64(n)
	blocks := (total + blockdev.BlockSize - 1) / blockdev.BlockSize
	if blocks > dev.NumBlocks()-startBlock {
		return nil, 0, fmt.Errorf("diskfmt: blob overruns device: %w", filesys.ErrCorrupted)
	}
	payload := make([]byte, 0, n)
	hi := int64(blockdev.BlockSize)
	if total < hi {
		hi = total
	}
	payload = append(payload, head[headerLen:hi]...)
	for i := int64(1); i < blocks; i++ {
		blk, err := blockdev.ReadView(dev, startBlock+i)
		if err != nil {
			return nil, 0, err
		}
		lo := i * blockdev.BlockSize
		end := lo + blockdev.BlockSize
		if end > total {
			end = total
		}
		payload = append(payload, blk[:end-lo]...)
	}
	payload = payload[:n]
	if Checksum(payload) != sum {
		return nil, 0, fmt.Errorf("diskfmt: blob checksum mismatch at block %d: %w", startBlock, filesys.ErrCorrupted)
	}
	return payload, blocks, nil
}

// On-disk layout shared by every backend (in blocks):
//
//	0, 1            superblock slots A and B (generation g lives in slot g%2)
//	2 .. 2+R-1      image region A (even generations)
//	2+R .. 2+2R-1   image region B (odd generations)
//	2+2R ..         log area: records appended contiguously
//
// where R = imageRegionBlocks. A bad checksum terminates log scanning (torn
// records) or invalidates a superblock slot.
const (
	imageRegionBlocks = 1024
	logStart          = 2 + 2*imageRegionBlocks

	// logReserveBlocks is the smallest log area a logging format is
	// formatted with.
	logReserveBlocks = 256
)

// Format is a backend's on-disk identity: the magics stamping its
// superblock, image blob and log records.
type Format struct {
	Name   string // the backend's name
	Super  uint32
	Image  uint32
	Record uint32 // zero: the format keeps no log
}

// minDeviceBlocks is the smallest device the format can be made on.
func (f Format) minDeviceBlocks() int64 {
	if f.Record == 0 {
		return logStart
	}
	return logStart + logReserveBlocks
}

// Mkfs formats dev with an empty tree as generation 1.
func (f Format) Mkfs(dev blockdev.Device, trailer func(*codec.Encoder)) error {
	if dev.NumBlocks() < f.minDeviceBlocks() {
		return fmt.Errorf("%s: device too small (%d blocks, need %d): %w",
			f.Name, dev.NumBlocks(), f.minDeviceBlocks(), filesys.ErrInvalid)
	}
	return f.WriteImage(dev, 1, fstree.New(), trailer)
}

// WriteImage serializes the tree (and the backend's trailer, if any) into
// the region for gen and flips the superblock to it. The inactive region is
// written first and the superblock only after a flush, so a crash
// mid-checkpoint always leaves the previous generation recoverable.
func (f Format) WriteImage(dev blockdev.Device, gen uint64, t *fstree.Tree, trailer func(*codec.Encoder)) error {
	e := getEncoder()
	defer encoders.Put(e)
	t.Encode(e)
	if trailer != nil {
		trailer(e)
	}
	payload := e.Bytes()
	start := int64(2)
	if gen%2 == 1 {
		start += imageRegionBlocks
	}
	// Bound-check before writing: an oversized image must not spill into
	// the other region, which holds the committed previous generation.
	if blocks := BlobBlocks(len(payload)); blocks > imageRegionBlocks {
		return fmt.Errorf("%s: image exceeds region (%d blocks)", f.Name, blocks)
	}
	if _, err := WriteBlob(dev, start, f.Image, payload); err != nil {
		return err
	}
	if err := dev.Flush(); err != nil {
		return err
	}
	if err := WriteSuperblock(dev, Superblock{
		Magic: f.Super, Gen: gen, ImageStart: start, ImageLen: int64(len(payload)),
	}); err != nil {
		return err
	}
	return dev.Flush()
}

// LoadImage loads the newest valid image: its generation, the tree, and the
// decoder positioned at the backend's trailer.
func (f Format) LoadImage(dev blockdev.Device) (uint64, *fstree.Tree, *codec.Decoder, error) {
	sb, err := LoadSuperblock(dev, f.Super)
	if err != nil {
		return 0, nil, nil, err
	}
	payload, _, err := ReadBlob(dev, sb.ImageStart, f.Image)
	if err != nil {
		return 0, nil, nil, err
	}
	d := codec.NewDecoder(payload)
	tree, err := fstree.DecodeTree(d)
	if err != nil {
		return 0, nil, nil, err
	}
	return sb.Gen, tree, d, nil
}

// ScanLog hands apply the body of each consecutive record of generation
// gen, in sequence order from the start of the log area, and returns how
// many it took. Scanning stops at the first invalid, foreign or
// out-of-sequence blob and at the first body apply rejects; apply must
// decode a body completely before acting on it.
func (f Format) ScanLog(dev blockdev.Device, gen uint64, apply func(*codec.Decoder) error) int {
	head := int64(logStart)
	seq := uint64(1)
	for head < dev.NumBlocks() {
		payload, blocks, err := ReadBlob(dev, head, f.Record)
		if err != nil {
			break
		}
		d := codec.NewDecoder(payload)
		if d.Uint64() != gen || d.Uint64() != seq || apply(d) != nil {
			break
		}
		head += blocks
		seq++
	}
	return int(seq - 1)
}
