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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fstree"
)

// castagnoli selects the hardware-accelerated CRC-32C implementation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is CRC-32C (Castagnoli) over the payload; adequate for detecting
// torn or stale blobs produced by crash-state replay. It is stored in a
// 64-bit header field.
func Checksum(data []byte) uint64 { return checksumUpdate(0, data) }

// checksumUpdate extends a running Checksum over data, so ReadBlob can
// checksum a payload in the same pass that gathers it block by block.
func checksumUpdate(sum uint64, data []byte) uint64 {
	return uint64(crc32.Update(uint32(sum), castagnoli, data))
}

// blockBufs recycles the block-sized buffers superblocks and the first
// block of each blob are framed in. None outlives the write or check that
// uses it: every blockdev.Device.WriteBlock copies its input.
var blockBufs = sync.Pool{New: func() any { return new([blockdev.BlockSize]byte) }}

// Superblock is the generation-stamped root of a file system. The slot
// written alternates with the generation (gen%2), so a failed superblock
// write can never destroy the previous valid root.
type Superblock struct {
	Magic      uint32
	Gen        uint64
	ImageStart int64
	ImageLen   int64
}

// appendSuperblock appends the checksummed fields of sb, encoded as
// codec.Encoder would, to dst.
func appendSuperblock(dst []byte, sb Superblock) []byte {
	dst = binary.AppendUvarint(dst, uint64(sb.Magic))
	dst = binary.AppendUvarint(dst, sb.Gen)
	dst = binary.AppendVarint(dst, sb.ImageStart)
	return binary.AppendVarint(dst, sb.ImageLen)
}

// WriteSuperblock stores sb in slot gen%2.
func WriteSuperblock(dev blockdev.Device, sb Superblock) error {
	buf := blockBufs.Get().(*[blockdev.BlockSize]byte)
	defer blockBufs.Put(buf)
	body := appendSuperblock(buf[:0], sb)
	return dev.WriteBlock(int64(sb.Gen%2), binary.AppendUvarint(body, Checksum(body)))
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
	// The checksum covers the canonical encoding of the decoded fields.
	buf := blockBufs.Get().(*[blockdev.BlockSize]byte)
	defer blockBufs.Put(buf)
	if d.Uint64() != Checksum(appendSuperblock(buf[:0], sb)) || d.Err() != nil {
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

// appendBlobHeader appends the header WriteBlob frames payload with to dst:
// magic, length and checksum, as codec.Encoder varints.
func appendBlobHeader(dst []byte, magic uint32, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(magic))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return binary.AppendUvarint(dst, Checksum(payload))
}

// blobBlocks is the number of blocks a blob with a headerLen-byte header and
// an n-byte payload spans.
func blobBlocks(headerLen int, n int64) int64 {
	return (int64(headerLen) + n + blockdev.BlockSize - 1) / blockdev.BlockSize
}

// WriteBlob stores a checksummed, length-prefixed payload at startBlock and
// returns the number of blocks consumed.
func WriteBlob(dev blockdev.Device, startBlock int64, magic uint32, payload []byte) (int64, error) {
	buf := blockBufs.Get().(*[blockdev.BlockSize]byte)
	defer blockBufs.Put(buf)
	return writeBlob(dev, startBlock, appendBlobHeader(buf[:0], magic, payload), payload)
}

// writeBlob writes payload framed by header, which must start a block-sized
// buffer: the first block (header plus the head of the payload) is built in
// place there, and the rest are written straight from sub-slices of payload,
// which WriteBlock copies.
func writeBlob(dev blockdev.Device, startBlock int64, header, payload []byte) (int64, error) {
	head := min(len(payload), blockdev.BlockSize-len(header))
	if err := dev.WriteBlock(startBlock, append(header, payload[:head]...)); err != nil {
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

// scratchBufs recycles the buffers ReadBlob gathers a multi-block payload in
// while it is being verified.
var scratchBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadBlob loads a blob written by WriteBlob, verifying magic and checksum.
// It views each block once, checksumming as it gathers; a payload that
// fails verification is never copied. The payload returned is shared and
// immutable: it equals the verified bytes, and may be the very slice an
// earlier ReadBlob of equal bytes returned (see verified), so decoders may
// alias it (fstree.DecodeNode does) but nobody may modify it.
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
	// Bound the stored length by the device before any arithmetic on it, so
	// no length wraps the block count.
	if n > uint64((dev.NumBlocks()-startBlock)*blockdev.BlockSize-int64(headerLen)) {
		return nil, 0, fmt.Errorf("diskfmt: blob overruns device: %w", filesys.ErrCorrupted)
	}
	total := int64(headerLen) + int64(n)
	blocks := blobBlocks(headerLen, int64(n))
	// A single-block payload is verified in place; a longer one is gathered
	// into pooled scratch, the one copy a payload that fails verification
	// costs.
	got := head[headerLen:min(total, blockdev.BlockSize)]
	h := checksumUpdate(0, got)
	if blocks > 1 {
		scratch := scratchBufs.Get().(*[]byte)
		defer scratchBufs.Put(scratch)
		*scratch = slices.Grow((*scratch)[:0], int(n))
		got = append(*scratch, got...)
		for i := int64(1); i < blocks; i++ {
			blk, err := blockdev.ReadView(dev, startBlock+i)
			if err != nil {
				return nil, 0, err
			}
			seg := blk[:min(total-i*blockdev.BlockSize, blockdev.BlockSize)]
			h = checksumUpdate(h, seg)
			got = append(got, seg...)
		}
	}
	if h != sum {
		return nil, 0, fmt.Errorf("diskfmt: blob checksum mismatch at block %d: %w", startBlock, filesys.ErrCorrupted)
	}
	return verified.intern(blobKey{magic: magic, n: n, sum: sum}, got), blocks, nil
}

// verifiedBudget bounds the payload bytes (plus a per-entry charge) the
// verified-payload memo holds before it starts over.
const verifiedBudget = 16 << 20

// memoEntryCost is what one memo entry is charged beyond its payload: its
// key, slice header and share of the map.
const memoEntryCost = 64

// verified memoises, process-wide, the payload last verified under each
// blob header, so re-mounting the same committed image or log record
// returns one shared payload instead of a fresh copy per mount.
var verified = newPayloadMemo(verifiedBudget)

// blobKey names a verified payload by the blob header it was read under.
type blobKey struct {
	magic  uint32
	n, sum uint64
}

// payloadMemo maps a blob key to the last payload verified under it. A hit
// requires byte equality with that payload, which was itself verified, so
// the memo trusts no hash: it returns a payload only where a fresh copy
// would be equal. Payloads are immutable, so one may be shared by any
// number of mounts and goroutines.
type payloadMemo struct {
	budget int

	mu   sync.Mutex
	used int
	m    map[blobKey][]byte
}

func newPayloadMemo(budget int) *payloadMemo {
	return &payloadMemo{budget: budget, m: map[blobKey][]byte{}}
}

// intern returns a payload equal to got that the caller may keep: the
// memoised one when its bytes equal got, otherwise an exact-size copy of
// got, memoised in its place. got itself is not retained, so it may be
// borrowed. A memo whose budget an insert would exceed is cleared first; a
// payload larger than the whole budget is copied but not memoised.
func (c *payloadMemo) intern(k blobKey, got []byte) []byte {
	c.mu.Lock()
	p, ok := c.m[k]
	c.mu.Unlock()
	if ok && bytes.Equal(p, got) {
		return p
	}
	p = make([]byte, len(got))
	copy(p, got)
	cost := len(p) + memoEntryCost
	if cost > c.budget {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		c.used -= len(old) + memoEntryCost
	}
	if c.used+cost > c.budget {
		clear(c.m)
		c.used = 0
	}
	c.m[k] = p
	c.used += cost
	return p
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
	// Bound-check with the exact header before writing: an oversized image
	// must not spill into the other region, which holds the committed
	// previous generation.
	buf := blockBufs.Get().(*[blockdev.BlockSize]byte)
	defer blockBufs.Put(buf)
	header := appendBlobHeader(buf[:0], f.Image, payload)
	if blocks := blobBlocks(len(header), int64(len(payload))); blocks > imageRegionBlocks {
		return fmt.Errorf("%s: image exceeds region (%d blocks)", f.Name, blocks)
	}
	if _, err := writeBlob(dev, start, header, payload); err != nil {
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
	gen, payload, err := f.loadImagePayload(dev)
	if err != nil {
		return 0, nil, nil, err
	}
	d := codec.NewDecoder(payload)
	tree, err := fstree.DecodeTree(d)
	if err != nil {
		return 0, nil, nil, err
	}
	return gen, tree, d, nil
}

// loadImagePayload returns the generation and the verified payload of the
// newest valid image.
func (f Format) loadImagePayload(dev blockdev.Device) (uint64, []byte, error) {
	sb, err := LoadSuperblock(dev, f.Super)
	if err != nil {
		return 0, nil, err
	}
	payload, _, err := ReadBlob(dev, sb.ImageStart, f.Image)
	if err != nil {
		return 0, nil, err
	}
	return sb.Gen, payload, nil
}

// ScanLog hands apply the body of each consecutive record of generation
// gen, in sequence order from the start of the log area, and returns how
// many it took. Scanning stops at the first invalid, foreign or
// out-of-sequence blob and at the first body apply rejects; apply must
// decode (or check) a body completely before acting on it. One decoder
// serves the whole scan and is reset for every record, so apply must not
// retain d; a value copy of *d keeps its own position.
func (f Format) ScanLog(dev blockdev.Device, gen uint64, apply func(*codec.Decoder) error) int {
	head := int64(logStart)
	seq := uint64(1)
	var d codec.Decoder
	for head < dev.NumBlocks() {
		payload, blocks, err := ReadBlob(dev, head, f.Record)
		if err != nil {
			break
		}
		d.Reset(payload)
		if d.Uint64() != gen || d.Uint64() != seq || apply(&d) != nil {
			break
		}
		head += blocks
		seq++
	}
	return int(seq - 1)
}

// RecFullImage is the kind byte of a full-image log record: one that holds
// a whole tree (Tree.Encode) after the kind. Records of any other kind are
// patches.
const RecFullImage byte = 0

// ReplayImages recovers a format whose log holds full images and patches
// (journalfs, fscqsim): the checkpoint image and every full-image record
// each supersede the tree before them, and every other record is a patch
// that decodePatch reads after its kind byte and applyPatch lands, in log
// order, on the newest image. It returns the generation, the recovered tree
// and how many records ScanLog took.
//
// Only images that something lands on, or that survive, are built. A full
// image is checked with fstree.SkipTree, which rejects exactly what
// fstree.DecodeTree rejects, and remembered as a copy of its decoder; it is
// decoded when the first patch after it arrives, or when the scan ends with
// it newest. The records accepted, their count and the tree recovered are
// therefore those of decoding every image as it is read.
func ReplayImages[P any](f Format, dev blockdev.Device,
	decodePatch func(kind byte, d *codec.Decoder) (P, error),
	applyPatch func(*fstree.Tree, P)) (gen uint64, tree *fstree.Tree, replayed int, err error) {

	gen, payload, err := f.loadImagePayload(dev)
	if err != nil {
		return 0, nil, 0, err
	}
	image := *codec.NewDecoder(payload) // the newest image; tree is nil until it is built
	check := image
	if err := fstree.SkipTree(&check); err != nil {
		return 0, nil, 0, err
	}
	replayed = f.ScanLog(dev, gen, func(d *codec.Decoder) error {
		kind := d.Byte()
		if kind == RecFullImage {
			start := *d
			if err := fstree.SkipTree(d); err != nil {
				return err
			}
			image, tree = start, nil
			return nil
		}
		p, err := decodePatch(kind, d)
		if err != nil {
			return err
		}
		if tree == nil {
			if tree, err = fstree.DecodeTree(&image); err != nil {
				return err
			}
		}
		applyPatch(tree, p)
		return nil
	})
	if tree == nil {
		if tree, err = fstree.DecodeTree(&image); err != nil {
			return 0, nil, 0, err
		}
	}
	return gen, tree, replayed, nil
}
