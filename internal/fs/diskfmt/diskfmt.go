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
	"sync/atomic"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fstree"
	"b3/internal/pagestore"
)

// castagnoli selects the hardware-accelerated CRC-32C implementation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is CRC-32C (Castagnoli) over the payload; adequate for detecting
// torn or stale blobs produced by crash-state replay. It is stored in a
// 64-bit header field.
func Checksum(data []byte) uint64 { return uint64(crc32.Checksum(data, castagnoli)) }

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

// scratchBufs recycles the buffers readBlob gathers a multi-block payload in
// while it is verified and lent.
var scratchBufs = sync.Pool{New: func() any { return new([]byte) }}

// lentPoison, when nonzero, is the byte release fills every lent scratch
// buffer with as it hands the buffer back to the pool, so a decoded value
// that kept a view of lent bytes reads garbage instead of its payload
// (tests only).
var lentPoison byte

// lease is a verified payload lent to readBlob's caller: its memo entry,
// which the caller may keep, and the payload's bytes, which the caller may
// read only until it calls release — pooled scratch for a multi-block
// payload, a view of the device's block for a single-block one. Nothing
// decoded from payload may keep a view of it.
type lease struct {
	*memoEntry
	payload []byte
	scratch *[]byte // payload's pooled buffer, or nil
}

// release ends the loan of l.payload. A zero lease releases nothing.
func (l lease) release() {
	if l.scratch == nil {
		return
	}
	if lentPoison != 0 {
		b := (*l.scratch)[:cap(*l.scratch)]
		for i := range b {
			b[i] = lentPoison
		}
	}
	scratchBufs.Put(l.scratch)
}

// readBlob loads a blob written by WriteBlob, verifying magic and checksum,
// and lends its payload (see lease); the caller releases the lease. It
// views each block once and looks the payload up in the memo (see verified)
// before it checksums it: a hit equals a payload verified under the same
// magic, length and checksum, so only a miss is checksummed. A payload that
// fails verification is never memoised, and one that passes is, copying
// only the chunks the page store does not hold.
func readBlob(dev blockdev.Device, startBlock int64, magic uint32) (lease, int64, error) {
	head, err := blockdev.ReadView(dev, startBlock)
	if err != nil {
		return lease{}, 0, err
	}
	d := codec.NewDecoder(head)
	if d.Uint32() != magic {
		return lease{}, 0, fmt.Errorf("diskfmt: bad blob magic at block %d: %w", startBlock, filesys.ErrCorrupted)
	}
	n := d.Uint64()
	sum := d.Uint64()
	if d.Err() != nil {
		return lease{}, 0, fmt.Errorf("diskfmt: bad blob header: %w", filesys.ErrCorrupted)
	}
	headerLen := blockdev.BlockSize - d.Remaining()
	// Bound the stored length by the device before any arithmetic on it, so
	// no length wraps the block count.
	if n > uint64((dev.NumBlocks()-startBlock)*blockdev.BlockSize-int64(headerLen)) {
		return lease{}, 0, fmt.Errorf("diskfmt: blob overruns device: %w", filesys.ErrCorrupted)
	}
	total := int64(headerLen) + int64(n)
	blocks := blobBlocks(headerLen, int64(n))
	// A single-block payload is verified and lent in place; a longer one is
	// gathered into pooled scratch, the one copy a payload that fails
	// verification costs.
	got := head[headerLen:min(total, blockdev.BlockSize)]
	var scratch *[]byte
	if blocks > 1 {
		scratch = scratchBufs.Get().(*[]byte)
		buf := append(slices.Grow((*scratch)[:0], int(n)), got...)
		for i := int64(1); i < blocks; i++ {
			blk, err := blockdev.ReadView(dev, startBlock+i)
			if err != nil {
				scratchBufs.Put(scratch)
				return lease{}, 0, err
			}
			buf = append(buf, blk[:min(total-i*blockdev.BlockSize, blockdev.BlockSize)]...)
		}
		*scratch, got = buf, buf
	}
	k := blobKey{magic: magic, n: n, sum: sum}
	e := verified.hit(k, got)
	if e == nil {
		if Checksum(got) != sum {
			if scratch != nil {
				scratchBufs.Put(scratch)
			}
			return lease{}, 0, fmt.Errorf("diskfmt: blob checksum mismatch at block %d: %w", startBlock, filesys.ErrCorrupted)
		}
		e = verified.insert(k, got)
	}
	//lint:allow borrowview the lease re-lends the view to readBlob's caller, who releases it before the device is written
	return lease{memoEntry: e, payload: got, scratch: scratch}, blocks, nil
}

// verifiedBudget bounds the bytes the verified-payload memo holds — the
// chunks its entries copied, the decoded values kept beside them and a
// per-entry charge — before it starts over; the page store's index starts
// over with it, and also once it alone holds more. An entry whose chunks
// the store already holds is charged little, so the memo keeps several
// times more entries and decoded trees per byte than when every entry paid
// for its whole payload: at 16 MiB that pointer-rich heap cost the
// collector more than the copies saved (EXPERIMENTS.md).
const verifiedBudget = 8 << 20

// memoEntryCost is what one memo entry, or one decoded value kept in it, is
// charged beyond the chunks it copied or its footprint: its key, headers,
// first chunk reference and share of the map.
const memoEntryCost = 64

// chunkRefCost is what an entry is charged for each chunk reference past
// its first: one slice header in its chunk list.
const chunkRefCost = 24

// verified memoises, process-wide, the payload last verified under each
// blob header, so re-mounting the same committed image or log record finds
// one shared entry instead of copying the payload per mount, and, beside
// each payload, what pure decoders made of it, so that recovery decodes
// each committed image and log record once. An entry holds its payload as
// chunks of the process-wide page store, which decoders share too (file
// pages, see fstree.DecodeContent), so a payload seen for the first time
// copies only the chunks no earlier payload held. Entries and decoded
// values are shared by every mount and goroutine that reads equal bytes,
// and are read-only: a caller that mutates a decoded value clones it first.
var verified = &payloadMemo{budget: verifiedBudget, m: map[blobKey]*memoEntry{}, pages: pagestore.Shared()}

// clearVerified empties the verified-payload memo, decoded values included,
// and starts the page store's index over. Tests that compare cold recovery
// with warm recovery, or that run the same sweep twice, reach it through
// go:linkname.
func clearVerified() { verified.clear() }

// blobKey names a verified payload by the blob header it was read under.
type blobKey struct {
	magic  uint32
	n, sum uint64
}

// memoEntry is one verified payload and the values pure decoders made of
// it, one per decoder. An entry lives in the memo from the insert that
// created it until the memo starts over or a different payload replaces
// it; decoded values leave with it.
type memoEntry struct {
	key blobKey
	// chunks is the payload cut at multiples of pagestore.PageSize, each
	// chunk the page store's; copied is how many of their bytes this entry
	// copied in.
	chunks [][]byte
	copied int
	// decoded holds one value per decoder that read the payload (a handful
	// at most); it is guarded by the memo's mutex.
	decoded []decodedValue
	// one backs chunks for a payload of one chunk.
	one [1][]byte
}

// decodedValue is what the decoder by made of an entry's payload.
type decodedValue struct {
	by   any // the *Decoder[T] that produced v
	v    any
	cost int // v's footprint plus the per-entry charge
}

// payloadMemo maps a blob key to the entry of the last payload verified
// under it. A hit requires byte equality with that payload, which was
// itself verified, chunk by chunk, so the memo trusts no hash: it returns
// an entry only where a fresh copy would be equal, and a decoded value only
// where decoding a fresh copy would give an equal one.
type payloadMemo struct {
	budget int
	pages  *pagestore.Store // where entries' chunks are interned

	mu   sync.Mutex
	used int
	m    map[blobKey]*memoEntry

	stats memoCounters
}

// memoCounters are a memo's MemoStats, counted as they happen.
type memoCounters struct {
	interns, hits, misses, bytesCopied, chunksShared, clears atomic.Int64
}

// MemoStats counts what the process-wide verified-payload memo has done
// since the process started. The counts depend on the schedule and on
// everything the process read before, so they describe a run; they are never
// asserted exactly.
type MemoStats struct {
	Interns      int64 // verified payloads looked up
	Hits         int64 // lookups that found equal bytes memoised
	Misses       int64 // lookups that made a new entry
	BytesCopied  int64 // chunk bytes the misses copied into the page store
	ChunksShared int64 // chunks the misses found the page store holding
	Clears       int64 // times the memo started over
}

// ReadMemoStats returns the verified-payload memo's counts so far.
func ReadMemoStats() MemoStats { return verified.stats.read() }

func (s *memoCounters) read() MemoStats {
	return MemoStats{
		Interns:      s.interns.Load(),
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		BytesCopied:  s.bytesCopied.Load(),
		ChunksShared: s.chunksShared.Load(),
		Clears:       s.clears.Load(),
	}
}

func (s MemoStats) String() string {
	return fmt.Sprintf("verified-payload memo: %d interns, %d hits, %d misses, %d bytes copied, %d chunks shared, %d clears",
		s.Interns, s.Hits, s.Misses, s.BytesCopied, s.ChunksShared, s.Clears)
}

// newPayloadMemo returns an empty memo with a page store of its own.
func newPayloadMemo(budget int) *payloadMemo {
	return &payloadMemo{budget: budget, m: map[blobKey]*memoEntry{}, pages: pagestore.New()}
}

// hit returns the memoised entry under k when its chunks equal got, the
// payload readBlob gathered, and nil otherwise; the caller may keep it.
func (c *payloadMemo) hit(k blobKey, got []byte) *memoEntry {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	if !ok || !e.equal(got) {
		return nil
	}
	c.stats.interns.Add(1)
	c.stats.hits.Add(1)
	return e
}

// insert returns a new entry for got, a verified payload hit missed, that
// the caller may keep: its chunks the page store holds, copying in only the
// chunks it held none equal to, memoised under k in place of any entry
// there. got itself is not retained, so it may be borrowed. A memo whose
// budget the insert would exceed, or whose page store alone holds more than
// the budget, is cleared first; an entry charged more than the whole budget
// is not memoised.
func (c *payloadMemo) insert(k blobKey, got []byte) *memoEntry {
	c.stats.interns.Add(1)
	c.stats.misses.Add(1)
	e := &memoEntry{key: k}
	shared := e.cut(got, c.pages)
	c.stats.bytesCopied.Add(int64(e.copied))
	c.stats.chunksShared.Add(int64(shared))
	cost := e.cost()
	if cost > c.budget {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		c.used -= old.cost()
	}
	if c.used+cost > c.budget || c.pages.Held() > c.budget {
		c.startOver()
	}
	c.m[k] = e
	c.used += cost
	return e
}

// cut sets e's chunks to got's, each interned in pages, and returns how
// many of them pages already held.
func (e *memoEntry) cut(got []byte, pages *pagestore.Store) (shared int) {
	n := pagestore.Chunks(len(got))
	e.chunks = e.one[:min(n, 1)]
	if n > 1 {
		e.chunks = make([][]byte, n)
	}
	e.copied, shared = pages.InternAll(e.chunks, got)
	return shared
}

// equal reports whether e's payload is got, comparing chunk by chunk.
func (e *memoEntry) equal(got []byte) bool {
	for _, p := range e.chunks {
		if len(got) < len(p) || !bytes.Equal(p, got[:len(p)]) {
			return false
		}
		got = got[len(p):]
	}
	return len(got) == 0
}

// cost is what e is charged: the chunk bytes it copied, its chunk
// references past the first, its decoded values' footprints and the
// per-entry charge for each. c.mu is held, or e is not memoised yet.
func (e *memoEntry) cost() int {
	c := e.copied + memoEntryCost + chunkRefCost*max(len(e.chunks)-1, 0)
	for _, dv := range e.decoded {
		c += dv.cost
	}
	return c
}

// clear drops every entry, decoded values included.
func (c *payloadMemo) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startOver()
}

// startOver drops every entry, decoded values included, and starts the page
// store's index over. c.mu is held.
func (c *payloadMemo) startOver() {
	clear(c.m)
	c.used = 0
	c.pages.Reset()
	c.stats.clears.Add(1)
}

// lookup returns the value by made of e's payload, if one is kept.
func (c *payloadMemo) lookup(e *memoEntry, by any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, dv := range e.decoded {
		if dv.by == by {
			return dv.v, true
		}
	}
	return nil, false
}

// keep stores v, the value by made of e's payload, beside it, charged
// footprint plus the per-entry charge. Only a memoised entry keeps values:
// one that was replaced, dropped when the memo started over, or never
// memoised is left alone, so a value never outlives its payload's time in
// the memo. A value that would overflow the budget, or that finds the page
// store holding more than the budget, starts the memo over with e, its
// payload and values, as the only entry; one that would not fit beside e's
// payload even then is not kept.
func (c *payloadMemo) keep(e *memoEntry, by, v any, footprint int) {
	cost := footprint + memoEntryCost
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[e.key] != e {
		return
	}
	for _, dv := range e.decoded {
		if dv.by == by {
			return // another mount decoded it meanwhile
		}
	}
	if e.cost()+cost > c.budget {
		return
	}
	if c.used+cost > c.budget || c.pages.Held() > c.budget {
		c.startOver()
		c.m[e.key] = e
		c.used = e.cost()
	}
	e.decoded = append(e.decoded, decodedValue{by: by, v: v, cost: cost})
	c.used += cost
}

// Decoder is a pure decoder of verified payloads: what it makes of a
// payload depends on the payload's bytes alone, never on backend state, bug
// toggles or the device. The verified-payload memo keeps one value per
// payload and Decoder, so every mount that reads equal bytes shares it.
// Shared values are read-only: a caller that would mutate one (a tree it
// replays onto, a map it updates) clones it first.
type Decoder[T any] struct {
	decode func(*codec.Decoder) (T, error)
	// footprint estimates the heap bytes a value holds beyond the page
	// store's pages it shares; the memo charges it to its budget.
	footprint func(T) int
}

// NewDecoder returns a Decoder for decode, whose values are charged
// footprint bytes. decode must be pure (see Decoder), must consume what it
// decodes from its argument's position, and must keep no view of the
// argument's bytes, which are lent (see lease): file content it keeps comes
// from the page store (fstree.DecodeContent), anything else is copied.
func NewDecoder[T any](decode func(*codec.Decoder) (T, error), footprint func(T) int) *Decoder[T] {
	return &Decoder[T]{decode: decode, footprint: footprint}
}

// decodeOnce returns what dec makes of l's payload read from d, which is
// positioned on it: the kept value when this payload was decoded by dec
// before, else a fresh decode, kept beside the payload on success. On a
// kept value d is left where it was. Errors are not kept.
func decodeOnce[T any](l lease, d *codec.Decoder, dec *Decoder[T]) (T, error) {
	if v, ok := verified.lookup(l.memoEntry, dec); ok {
		return v.(T), nil
	}
	v, err := dec.decode(d)
	if err == nil {
		verified.keep(l.memoEntry, dec, v, dec.footprint(v))
	}
	return v, err
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

// LoadImage loads the newest valid image: its generation, the tree, and a
// decoder positioned at the backend's trailer. The tree is decoded once per
// distinct image payload (see verified) and shared by every mount that
// loads equal bytes, so it is read-only: a caller that mutates it — every
// caller that mounts it as its in-memory tree — clones it first. The
// trailer decoder is the caller's own; the bytes it reads are a copy kept
// with the decoded tree, shared and read-only.
func (f Format) LoadImage(dev blockdev.Device) (uint64, *fstree.Tree, *codec.Decoder, error) {
	sb, err := LoadSuperblock(dev, f.Super)
	if err != nil {
		return 0, nil, nil, err
	}
	l, _, err := readBlob(dev, sb.ImageStart, f.Image)
	if err != nil {
		return 0, nil, nil, err
	}
	defer l.release()
	img, err := decodeOnce(l, codec.NewDecoder(l.payload), images)
	if err != nil {
		return 0, nil, nil, err
	}
	return sb.Gen, img.tree, codec.NewDecoder(img.trailer), nil
}

// image is what LoadImage makes of an image payload: the tree and a copy of
// the trailer bytes after it.
type image struct {
	tree    *fstree.Tree
	trailer []byte
}

// images decodes image payloads for LoadImage.
var images = NewDecoder(func(d *codec.Decoder) (image, error) {
	tree, err := fstree.DecodeTree(d)
	if err != nil {
		return image{}, err
	}
	img := image{tree: tree}
	if n := d.Remaining(); n > 0 {
		img.trailer = bytes.Clone(d.Raw(n))
	}
	return img, nil
}, func(img image) int { return img.tree.Footprint() + len(img.trailer) })

// ScanLog hands apply the body of each consecutive record of generation
// gen, in sequence order from the start of the log area, and returns how
// many it took. Scanning stops at the first invalid, foreign or
// out-of-sequence blob and at the first body apply rejects; apply must
// decode (or check) a body completely before acting on it. One decoder
// serves the whole scan and is reset for every record, so apply must not
// retain d; a value copy of *d keeps its own position. The body is lent:
// apply copies what it keeps of it.
func (f Format) ScanLog(dev blockdev.Device, gen uint64, apply func(*codec.Decoder) error) int {
	return f.scan(dev, gen, func(l lease, d *codec.Decoder) error {
		defer l.release()
		return apply(d)
	})
}

// ScanRecords is ScanLog for a log whose record bodies dec decodes: apply
// gets each body's decoded value, in sequence order, and scanning also
// stops at the first body dec rejects. Each distinct record body is decoded
// once per process (see verified); the values apply gets are shared and
// read-only.
func ScanRecords[T any](f Format, dev blockdev.Device, gen uint64, dec *Decoder[T], apply func(T) error) int {
	return f.scan(dev, gen, func(l lease, d *codec.Decoder) error {
		defer l.release()
		v, err := decodeOnce(l, d, dec)
		if err != nil {
			return err
		}
		return apply(v)
	})
}

// scan is the one log walk behind ScanLog and ScanRecords: apply gets each record's lease, which it then owns and must release, and
// a decoder positioned on the record's body.
func (f Format) scan(dev blockdev.Device, gen uint64, apply func(lease, *codec.Decoder) error) int {
	head := int64(logStart)
	seq := uint64(1)
	var d codec.Decoder
	for head < dev.NumBlocks() {
		l, blocks, err := readBlob(dev, head, f.Record)
		if err != nil {
			break
		}
		d.Reset(l.payload)
		if d.Uint64() != gen || d.Uint64() != seq {
			l.release()
			break
		}
		if apply(l, &d) != nil {
			break
		}
		head += blocks
		seq++
	}
	return int(seq - 1)
}

// RecFullImage is the kind byte of a full-image log record, the one every
// format that recovers through ReplayImages gives it: a whole tree
// (Tree.Encode) follows the kind. Records of any other kind are patches.
const RecFullImage byte = 0

// ReplayImages recovers a format whose log holds full images and patches
// (journalfs, fscqsim) through ScanRecords: dec decodes a whole record,
// image returns the tree of a full-image record and nil for a patch, and
// apply lands a patch on the newest image, in log order. The checkpoint
// image and every full-image record each supersede the tree before them. It
// returns the generation, the recovered tree, which the caller owns, and how
// many records the scan took. Decoded records and images are shared (see
// verified), so the tree patches land on, and the one returned, is a clone
// of the newest image.
func ReplayImages[R any](f Format, dev blockdev.Device, dec *Decoder[R],
	image func(R) *fstree.Tree, apply func(*fstree.Tree, R)) (gen uint64, tree *fstree.Tree, replayed int, err error) {

	gen, newest, _, err := f.LoadImage(dev)
	if err != nil {
		return 0, nil, 0, err
	}
	replayed = ScanRecords(f, dev, gen, dec, func(r R) error {
		if t := image(r); t != nil {
			newest, tree = t, nil
			return nil
		}
		if tree == nil {
			tree = newest.Clone()
		}
		apply(tree, r)
		return nil
	})
	if tree == nil {
		tree = newest.Clone()
	}
	return gen, tree, replayed, nil
}
