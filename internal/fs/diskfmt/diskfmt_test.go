package diskfmt

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/fstree"
	"b3/internal/pagestore"
)

const testMagic = 0x54455354

func TestSuperblockRoundTrip(t *testing.T) {
	dev := blockdev.NewMemDisk(16)
	for gen := uint64(1); gen <= 4; gen++ {
		sb := Superblock{Magic: testMagic, Gen: gen, ImageStart: int64(gen * 2), ImageLen: 100}
		if err := WriteSuperblock(dev, sb); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSuperblock(dev, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		if got.Gen != gen {
			t.Fatalf("gen %d: loaded %d", gen, got.Gen)
		}
	}
}

func TestSuperblockSlotAlternation(t *testing.T) {
	dev := blockdev.NewMemDisk(16)
	if err := WriteSuperblock(dev, Superblock{Magic: testMagic, Gen: 2, ImageStart: 2}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSuperblock(dev, Superblock{Magic: testMagic, Gen: 3, ImageStart: 4}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newer slot (gen 3 lives in slot 1): fall back to gen 2.
	if err := dev.WriteBlock(1, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSuperblock(dev, testMagic)
	if err != nil || got.Gen != 2 {
		t.Fatalf("fallback failed: %+v %v", got, err)
	}
}

func TestSuperblockMissing(t *testing.T) {
	if _, err := LoadSuperblock(blockdev.NewMemDisk(4), testMagic); err == nil {
		t.Fatal("expected error on empty device")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	dev := blockdev.NewMemDisk(64)
	for _, size := range []int{0, 1, 100, blockdev.BlockSize - 20, blockdev.BlockSize, 3*blockdev.BlockSize + 7} {
		payload := bytes.Repeat([]byte{0xAB}, size)
		blocks, err := WriteBlob(dev, 4, testMagic, payload)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, gotBlocks, err := ReadBlob(dev, 4, testMagic)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if gotBlocks != blocks || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: round trip failed (%d vs %d blocks)", size, gotBlocks, blocks)
		}
	}
}

// writeBlobReference is the single-buffer framing WriteBlob replaced: the
// whole blob is encoded into one buffer and cut into blocks.
func writeBlobReference(dev blockdev.Device, startBlock int64, magic uint32, payload []byte) (int64, error) {
	raw := append(blobHeader(magic, payload), payload...)
	blocks := (int64(len(raw)) + blockdev.BlockSize - 1) / blockdev.BlockSize
	for i := int64(0); i < blocks; i++ {
		lo := i * blockdev.BlockSize
		hi := min(lo+blockdev.BlockSize, int64(len(raw)))
		if err := dev.WriteBlock(startBlock+i, raw[lo:hi]); err != nil {
			return 0, err
		}
	}
	return blocks, nil
}

func blobHeader(magic uint32, payload []byte) []byte {
	e := codec.NewEncoder(32)
	e.Uint32(magic)
	e.Uint64(uint64(len(payload)))
	e.Uint64(Checksum(payload))
	return e.Bytes()
}

// TestBlobFramingMatchesSingleBuffer pins WriteBlob's copy-free framing to
// the single-buffer reference, block for block, around every boundary the
// first block can fall on.
func TestBlobFramingMatchesSingleBuffer(t *testing.T) {
	payloads := [][]byte{patterned(0, 0), patterned(1, 0), patterned(3*blockdev.BlockSize, 0)}
	// Payloads whose header+payload is one byte short of, exactly, and one
	// byte past a block (the checksum varint's length varies with content).
	for _, over := range []int{-1, 0, 1} {
	search:
		for n := blockdev.BlockSize - 32; n <= blockdev.BlockSize; n++ {
			for seed := 0; seed < 256; seed++ {
				p := patterned(n, byte(seed))
				if n+len(blobHeader(testMagic, p)) == blockdev.BlockSize+over {
					payloads = append(payloads, p)
					break search
				}
			}
		}
	}
	if len(payloads) != 6 {
		t.Fatalf("found %d payloads, want one per boundary", len(payloads))
	}
	const start, devBlocks = 3, 16
	garbage := bytes.Repeat([]byte{0xCC}, blockdev.BlockSize)
	for _, payload := range payloads {
		size := len(payload)
		got, want := blockdev.NewMemDisk(devBlocks), blockdev.NewMemDisk(devBlocks)
		for b := int64(0); b < devBlocks; b++ {
			if err := got.WriteBlock(b, garbage); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteBlock(b, garbage); err != nil {
				t.Fatal(err)
			}
		}
		gotBlocks, err := WriteBlob(got, start, testMagic, payload)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		wantBlocks, err := writeBlobReference(want, start, testMagic, payload)
		if err != nil {
			t.Fatal(err)
		}
		if gotBlocks != wantBlocks {
			t.Fatalf("size %d: WriteBlob used %d blocks, reference %d", size, gotBlocks, wantBlocks)
		}
		for b := int64(0); b < devBlocks; b++ {
			g, _ := got.ReadBlock(b)
			w, _ := want.ReadBlock(b)
			if !bytes.Equal(g, w) {
				t.Fatalf("size %d: block %d differs from the single-buffer framing", size, b)
			}
		}
		back, backBlocks, err := ReadBlob(got, start, testMagic)
		if err != nil || backBlocks != gotBlocks || !bytes.Equal(back, payload) {
			t.Fatalf("size %d: ReadBlob = %d bytes, %d blocks, %v", size, len(back), backBlocks, err)
		}
	}
}

// TestWriteImageStaysInRegion pins WriteImage's bound check to the exact
// blob header: around the largest payload an image region holds, an image
// either fits or is refused before anything is written, and the other
// region's committed image is never touched.
func TestWriteImageStaysInRegion(t *testing.T) {
	f := Format{Name: "test", Super: testMagic + 1, Image: testMagic}
	dev := blockdev.NewMemDisk(logStart)
	if err := f.Mkfs(dev, nil); err != nil { // generation 1: region B
		t.Fatal(err)
	}
	committed, _ := dev.ReadBlock(2 + imageRegionBlocks)
	tree := fstree.New()
	e := codec.NewEncoder(0)
	tree.Encode(e)
	base := e.Len()
	limit := imageRegionBlocks * blockdev.BlockSize
	pad := make([]byte, limit)
	for n := limit - 20; n < limit; n++ {
		trailer := func(e *codec.Encoder) { e.Raw(pad[:n-base]) }
		e.Reset()
		tree.Encode(e)
		trailer(e)
		fits := len(blobHeader(f.Image, e.Bytes()))+n <= limit
		err := f.WriteImage(dev, 2, tree, trailer) // generation 2: region A
		if (err == nil) != fits {
			t.Fatalf("%d-byte image: WriteImage error %v, want fits=%t", n, err, fits)
		}
		if blk, _ := dev.ReadBlock(2 + imageRegionBlocks); !bytes.Equal(blk, committed) {
			t.Fatalf("%d-byte image spilled into the committed region", n)
		}
	}
}

func TestBlobChecksumDetectsCorruption(t *testing.T) {
	dev := blockdev.NewMemDisk(64)
	payload := bytes.Repeat([]byte{7}, 2*blockdev.BlockSize)
	if _, err := WriteBlob(dev, 4, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the second block.
	blk, _ := dev.ReadBlock(5)
	blk[100] ^= 0xFF
	if err := dev.WriteBlock(5, blk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadBlob(dev, 4, testMagic); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestBlobWrongMagic(t *testing.T) {
	dev := blockdev.NewMemDisk(8)
	if _, err := WriteBlob(dev, 2, testMagic, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadBlob(dev, 2, testMagic+1); err == nil {
		t.Fatal("magic mismatch not detected")
	}
}

func TestQuickBlobRoundTrip(t *testing.T) {
	dev := blockdev.NewMemDisk(128)
	f := func(payload []byte) bool {
		if len(payload) > 100*1024 {
			payload = payload[:100*1024]
		}
		if _, err := WriteBlob(dev, 2, testMagic, payload); err != nil {
			return false
		}
		got, _, err := ReadBlob(dev, 2, testMagic)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumProperties(t *testing.T) {
	if Checksum(nil) != Checksum([]byte{}) {
		t.Fatal("nil and empty must hash identically")
	}
	if Checksum([]byte{1}) == Checksum([]byte{2}) {
		t.Fatal("trivial collision")
	}
	// The CRC-32C check value (RFC 3720, appendix B.4).
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum(\"123456789\") = %#x, want CRC-32C 0xe3069283", got)
	}
}

// readBlobReference is the copy-then-verify reader ReadBlob replaced: every
// block of the blob is copied into a fresh payload, which is checksummed
// afterwards. Unlike that reader it rejects a stored length that would wrap
// the block count instead of panicking on it.
func readBlobReference(dev blockdev.Device, startBlock int64, magic uint32) ([]byte, int64, error) {
	head, err := dev.ReadBlock(startBlock)
	if err != nil {
		return nil, 0, err
	}
	d := codec.NewDecoder(head)
	if d.Uint32() != magic {
		return nil, 0, errors.New("bad magic")
	}
	n := d.Uint64()
	sum := d.Uint64()
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	headerLen := blockdev.BlockSize - d.Remaining()
	if n > 1<<40 {
		return nil, 0, errors.New("length wraps the block count")
	}
	total := int64(headerLen) + int64(n)
	blocks := (total + blockdev.BlockSize - 1) / blockdev.BlockSize
	if blocks > dev.NumBlocks()-startBlock {
		return nil, 0, errors.New("blob overruns device")
	}
	payload := make([]byte, 0, n)
	payload = append(payload, head[headerLen:min(total, blockdev.BlockSize)]...)
	for i := int64(1); i < blocks; i++ {
		blk, err := dev.ReadBlock(startBlock + i)
		if err != nil {
			return nil, 0, err
		}
		payload = append(payload, blk[:min(total-i*blockdev.BlockSize, blockdev.BlockSize)]...)
	}
	if Checksum(payload) != sum {
		return nil, 0, errors.New("checksum mismatch")
	}
	return payload, blocks, nil
}

// matchReference fails t unless ReadBlob and readBlobReference agree on the
// blob at start: payload, block count and whether it is an error.
func matchReference(t *testing.T, dev blockdev.Device, start int64, what string) {
	t.Helper()
	want, wantBlocks, wantErr := readBlobReference(dev, start, testMagic)
	got, gotBlocks, err := ReadBlob(dev, start, testMagic)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: ReadBlob error %v, reference error %v", what, err, wantErr)
	}
	if err == nil && (gotBlocks != wantBlocks || !bytes.Equal(got, want)) {
		t.Fatalf("%s: ReadBlob = %d bytes in %d blocks, reference %d bytes in %d blocks",
			what, len(got), gotBlocks, len(want), wantBlocks)
	}
}

func patterned(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) + seed
	}
	return p
}

// pagePatterned is patterned with every page of it different.
func pagePatterned(n int, seed byte) []byte {
	p := patterned(n, seed)
	for i := range p {
		p[i] += byte(i / pagestore.PageSize)
	}
	return p
}

// TestReadBlobMatchesReference damages a blob the way the fault axis does,
// block by block, after a successful read has memoised its payload: every
// read must agree with the reference reader, and re-reading the intact blob
// must still return its payload. A header whose checksum field alone is
// wrong frames the memoised bytes, and must still be rejected.
func TestReadBlobMatchesReference(t *testing.T) {
	const start, devBlocks, sector = 2, 8, 512
	stale := bytes.Repeat([]byte{0xCC}, blockdev.BlockSize)
	block := func(dev *blockdev.MemDisk, b int64) []byte {
		blk, err := dev.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	write := func(dev *blockdev.MemDisk, b int64, data []byte) {
		if err := dev.WriteBlock(b, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{0, 100, 3*blockdev.BlockSize + 7} {
		payload := patterned(size, byte(size))
		type mutation struct {
			name  string
			apply func(dev *blockdev.MemDisk, b int64)
		}
		mutations := []mutation{
			{"zeroed", func(dev *blockdev.MemDisk, b int64) { write(dev, b, nil) }},
			{"complemented", func(dev *blockdev.MemDisk, b int64) {
				blk := block(dev, b)
				for i := range blk {
					blk[i] ^= 0xFF
				}
				write(dev, b, blk)
			}},
			{"misdirected", func(dev *blockdev.MemDisk, b int64) {
				write(dev, b+1, block(dev, b))
				write(dev, b, stale)
			}},
			{"rewritten", func(dev *blockdev.MemDisk, b int64) {
				if _, err := WriteBlob(dev, start, testMagic, patterned(size, byte(size)+1)); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, sectors := range []int{1, 4, 7} {
			mutations = append(mutations, mutation{"torn", func(dev *blockdev.MemDisk, b int64) {
				write(dev, b, append(block(dev, b)[:sectors*sector], stale[sectors*sector:]...))
			}})
		}
		for _, off := range []int{0, 5, 6, 700, blockdev.BlockSize - 1} {
			mutations = append(mutations, mutation{"byte flip", func(dev *blockdev.MemDisk, b int64) {
				blk := block(dev, b)
				blk[off] ^= 0x01
				write(dev, b, blk)
			}})
		}
		for _, delta := range []int{-1, 1, blockdev.BlockSize} {
			mutations = append(mutations, mutation{"length field", func(dev *blockdev.MemDisk, b int64) {
				if b != start || size+delta < 0 {
					return
				}
				e := codec.NewEncoder(blockdev.BlockSize)
				e.Uint32(testMagic)
				e.Uint64(uint64(size + delta))
				e.Uint64(Checksum(payload))
				e.Raw(payload[:min(size, blockdev.BlockSize-e.Len())])
				write(dev, b, e.Bytes())
			}})
		}
		mutations = append(mutations, mutation{"checksum field", func(dev *blockdev.MemDisk, b int64) {
			if b != start {
				return
			}
			e := codec.NewEncoder(blockdev.BlockSize)
			e.Uint32(testMagic)
			e.Uint64(uint64(size))
			e.Uint64(Checksum(payload) ^ 1)
			e.Raw(payload[:min(size, blockdev.BlockSize-e.Len())])
			write(dev, b, e.Bytes())
		}})
		for _, m := range mutations {
			dev := blockdev.NewMemDisk(devBlocks)
			for b := int64(0); b < devBlocks; b++ {
				write(dev, b, stale)
			}
			blocks, err := WriteBlob(dev, start, testMagic, payload)
			if err != nil {
				t.Fatal(err)
			}
			for b := int64(start); b < start+blocks; b++ {
				if _, err := WriteBlob(dev, start, testMagic, payload); err != nil {
					t.Fatal(err)
				}
				if got, _, err := ReadBlob(dev, start, testMagic); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("%d-byte blob: intact read failed: %v", size, err)
				}
				m.apply(dev, b)
				matchReference(t, dev, start, fmt.Sprintf("%d-byte blob, %s block %d", size, m.name, b))
			}
		}
	}
}

// TestReadBlobConcurrentReaders shares memoised payloads across goroutines:
// readers of one device, each also churning blobs of its own, and interns
// against a memo small enough to keep resetting.
func TestReadBlobConcurrentReaders(t *testing.T) {
	shared := blockdev.NewMemDisk(8)
	payload := patterned(2*blockdev.BlockSize+100, 1)
	if _, err := WriteBlob(shared, 1, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	small := newPayloadMemo(3 * (64 + memoEntryCost))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := blockdev.NewMemDisk(8)
			for i := 0; i < 100; i++ {
				if got, _, err := ReadBlob(shared, 1, testMagic); err != nil || !bytes.Equal(got, payload) {
					t.Errorf("shared read %d: %v", i, err)
					return
				}
				mine := patterned(64+i%5*blockdev.BlockSize/2, byte(w))
				if _, err := WriteBlob(own, 1, testMagic, mine); err != nil {
					t.Error(err)
					return
				}
				if got, _, err := ReadBlob(own, 1, testMagic); err != nil || !bytes.Equal(got, mine) {
					t.Errorf("own read %d: %v", i, err)
					return
				}
				in := patterned(64, byte(i%5))
				if got := small.intern(blobKey{sum: uint64(i % 5)}, in).gather(); !bytes.Equal(got, in) {
					t.Errorf("intern %d returned other bytes", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPayloadMemo pins the memo's contract: a hit returns the memoised
// entry only on equal bytes, a miss makes an entry holding an exact-size
// copy it does not alias, and the budget bounds what is held by starting
// over.
func TestPayloadMemo(t *testing.T) {
	const size = 100
	const budget = 4 * (size + memoEntryCost)
	c := newPayloadMemo(budget)
	key := func(i int) blobKey { return blobKey{magic: testMagic, n: size, sum: uint64(i)} }

	in := patterned(size, 0)
	first := c.intern(key(0), in)
	in[0] ^= 0xFF
	if len(first.chunks) != 1 || first.chunks[0][0] == in[0] || cap(first.chunks[0]) != size {
		t.Fatal("a miss must hold an exact-size copy of its input")
	}
	if again := c.intern(key(0), patterned(size, 0)); again != first {
		t.Fatal("equal bytes under one key must share the memoised entry")
	}
	other := patterned(size, 1)
	if got := c.intern(key(0), other); !bytes.Equal(got.gather(), other) {
		t.Fatal("unequal bytes under one key must not return the memoised payload")
	}

	for i := 1; i < 4; i++ {
		c.intern(key(i), patterned(size, byte(i)+10))
	}
	if len(c.m) != 4 || c.used != budget {
		t.Fatalf("full memo: %d entries, %d bytes used; want 4, %d", len(c.m), c.used, budget)
	}
	c.intern(key(4), patterned(size, 4))
	if len(c.m) != 1 || c.used != size+memoEntryCost {
		t.Fatalf("after overflow: %d entries, %d bytes used; want a reset to 1", len(c.m), c.used)
	}
	big := patterned(budget, 5)
	if got := c.intern(blobKey{n: budget}, big); !bytes.Equal(got.gather(), big) || len(c.m) != 1 {
		t.Fatal("a payload over the whole budget must be copied but not memoised")
	}
}

// TestPayloadMemoSharesChunks pins what a miss copies: only the chunks the
// page store holds none equal to. A payload that repeats another's first
// chunks shares them and is charged only for its new chunk and its chunk
// references; decoders' pages count toward the budget through the store,
// which starts over with the memo.
func TestPayloadMemoSharesChunks(t *testing.T) {
	const page = pagestore.PageSize
	c := newPayloadMemo(1 << 20)
	key := func(i int) blobKey { return blobKey{magic: testMagic, sum: uint64(i)} }
	a := pagePatterned(3*page+100, 1)
	ea := c.intern(key(1), a)
	if len(ea.chunks) != 4 || ea.copied != len(a) || c.used != len(a)+memoEntryCost+3*chunkRefCost {
		t.Fatalf("first sighting: %d chunks, %d bytes copied, %d used", len(ea.chunks), ea.copied, c.used)
	}
	b := bytes.Clone(a)
	b[len(b)-1] ^= 0xFF
	used := c.used
	eb := c.intern(key(2), b)
	for i := range 3 {
		if &eb.chunks[i][0] != &ea.chunks[i][0] {
			t.Fatalf("chunk %d was copied again", i)
		}
	}
	if eb.copied != 100 || c.used-used != 100+memoEntryCost+3*chunkRefCost || !bytes.Equal(eb.gather(), b) {
		t.Fatalf("a payload with one new chunk: %d bytes copied, charged %d", eb.copied, c.used-used)
	}
	if !bytes.Equal(ea.gather(), a) {
		t.Fatal("sharing chunks changed the first payload")
	}

	small := newPayloadMemo(2 * page)
	small.intern(key(1), patterned(10, 1))
	for i := range 3 {
		small.pages.Intern(patterned(page, byte(i))) // a decoder's pages
	}
	small.intern(key(2), patterned(10, 2))
	if len(small.m) != 1 || small.pages.Held() != 0 {
		t.Fatalf("a page store over the budget must start over with the memo: %d entries, %d bytes held",
			len(small.m), small.pages.Held())
	}
}

// TestMemoHitAllocatesNothing pins the memo's hot path, a hit: looking up
// a payload the memo holds, single-chunk or not, through intern or a whole
// readBlob of a single-block blob, allocates nothing.
func TestMemoHitAllocatesNothing(t *testing.T) {
	c := newPayloadMemo(verifiedBudget)
	for _, size := range []int{100, 16 * pagestore.PageSize} {
		in := patterned(size, 3)
		e := c.intern(blobKey{n: uint64(size)}, in)
		if allocs := testing.AllocsPerRun(100, func() {
			if c.intern(blobKey{n: uint64(size)}, in) != e {
				t.Fatal("missed")
			}
		}); allocs != 0 {
			t.Errorf("a %d-byte hit allocates %v times, want 0", size, allocs)
		}
	}
	dev := blockdev.NewMemDisk(4)
	if _, err := WriteBlob(dev, 1, testMagic, patterned(200, 4)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		l, _, err := readBlob(dev, 1, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		l.release()
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("reading a memoised single-block blob allocates %v times, want 0", allocs)
	}
}

// TestMemoMissOnHeldChunksCopiesNoPayload pins a miss on a 64 KiB payload
// whose chunks the page store all holds: it allocates the entry and its
// chunk list, and no payload bytes. Two payloads of the same chunks in
// another order take turns under one key, so every intern misses.
func TestMemoMissOnHeldChunksCopiesNoPayload(t *testing.T) {
	const page = pagestore.PageSize
	c := newPayloadMemo(verifiedBudget)
	a := pagePatterned(16*page, 5)
	b := append(bytes.Clone(a[8*page:]), a[:8*page]...)
	k := blobKey{n: uint64(len(a))}
	c.intern(k, a)
	c.intern(k, b)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if e := c.intern(k, a); e.copied != 0 {
			t.Fatal("a chunk was copied")
		}
		c.intern(k, b)
	}
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / (2 * runs)
	allocated := int64(after.TotalAlloc-before.TotalAlloc) / (2 * runs)
	t.Logf("miss on 16 held chunks: %.1f mallocs, %d bytes", mallocs, allocated)
	if mallocs > 2.5 || allocated > page/4 { // a stray runtime allocation may land in the window
		t.Errorf("a miss on held chunks makes %.1f allocations of %d bytes, want the entry and its chunk list", mallocs, allocated)
	}
}

// TestDecodedMemo pins the decoded-value slot of the memo: one value per
// payload and decoder, returned with the payload on a hit, gone with its
// payload when that is replaced or the memo starts over, kept only by a
// memoised entry, and charged to the budget.
func TestDecodedMemo(t *testing.T) {
	const size = 100
	const charge = size + memoEntryCost
	c := newPayloadMemo(4 * charge)
	key := func(i int) blobKey { return blobKey{magic: testMagic, n: size, sum: uint64(i)} }
	byA, byB := new(int), new(int) // two decoders' identities

	e := c.intern(key(0), patterned(size, 0))
	if _, ok := c.lookup(e, byA); ok {
		t.Fatal("a fresh entry holds a decoded value")
	}
	c.keep(e, byA, "a", size)
	if v, ok := c.lookup(e, byA); !ok || v != "a" {
		t.Fatalf("kept value not returned: %v %v", v, ok)
	}
	if _, ok := c.lookup(e, byB); ok {
		t.Fatal("a value is kept per decoder, not per payload")
	}
	if again := c.intern(key(0), patterned(size, 0)); again != e {
		t.Fatal("equal bytes must return the entry that holds the decoded values")
	}
	if c.used != 2*charge {
		t.Fatalf("payload and value charged %d bytes, want %d", c.used, 2*charge)
	}

	replaced := c.intern(key(0), patterned(size, 1))
	if _, ok := c.lookup(replaced, byA); ok || c.used != charge {
		t.Fatalf("a replaced payload must take its values with it: %d bytes used", c.used)
	}
	c.keep(e, byB, "stale", size)
	if _, ok := c.lookup(e, byB); ok || c.used != charge {
		t.Fatal("an entry no longer memoised must keep nothing more")
	}

	c.keep(replaced, byA, "a", size)
	other := c.intern(key(1), patterned(size, 2))
	c.keep(other, byA, "b", size)
	if len(c.m) != 2 || c.used != 4*charge {
		t.Fatalf("full memo: %d entries, %d bytes used; want 2, %d", len(c.m), c.used, 4*charge)
	}
	c.keep(other, byB, "c", size)
	if len(c.m) != 1 || c.used != 3*charge {
		t.Fatalf("after overflow: %d entries, %d bytes used; want the one entry with its payload and two values", len(c.m), c.used)
	}
	if v, ok := c.lookup(other, byB); !ok || v != "c" {
		t.Fatal("the value that overflowed the budget must be kept after the memo starts over")
	}
	if c.m[key(0)] != nil {
		t.Fatal("starting over must drop the other entries with their values")
	}
	c.keep(other, new(int), "huge", 4*charge)
	if len(other.decoded) != 2 {
		t.Fatal("a value over the whole budget must not be kept")
	}
	big := c.intern(blobKey{n: 4 * charge}, patterned(4*charge, 5))
	c.keep(big, byA, "x", 0)
	if _, ok := c.lookup(big, byA); ok {
		t.Fatal("an entry that was never memoised must keep nothing")
	}
}

// TestDecodeOnce checks decodeOnce against the process-wide memo: readers
// of one blob, across goroutines, share a single decode, clearVerified
// forgets it, and a failed decode is not kept.
func TestDecodeOnce(t *testing.T) {
	clearVerified()
	dev := blockdev.NewMemDisk(8)
	payload := patterned(2*blockdev.BlockSize+100, 3)
	if _, err := WriteBlob(dev, 1, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	fail := false
	dec := NewDecoder(func(d *codec.Decoder) (*[]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if fail {
			return nil, errors.New("rejected")
		}
		v := d.Raw(d.Remaining())
		return &v, nil
	}, func(*[]byte) int { return 0 })
	read := func() (*[]byte, error) {
		e, _, err := readBlob(dev, 1, testMagic)
		if err != nil {
			return nil, err
		}
		return decodeOnce(e, codec.NewDecoder(e.payload), dec)
	}

	first, err := read()
	if err != nil || !bytes.Equal(*first, payload) {
		t.Fatalf("decode: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if v, err := read(); err != nil || v != first {
					t.Errorf("read %d: %v; want the kept value", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("%d decodes of one payload, want 1", calls)
	}

	clearVerified()
	fail = true
	for i := 0; i < 2; i++ {
		if _, err := read(); err == nil {
			t.Fatal("the decoder's error was lost")
		}
	}
	if calls != 3 {
		t.Fatalf("%d decodes, want 3: a failed decode must not be kept", calls)
	}
	fail = false
	if v, err := read(); err != nil || v == first || !bytes.Equal(*v, payload) {
		t.Fatal("after clearVerified the payload must be decoded afresh")
	}
}

// FuzzReadBlob checks ReadBlob against the reference reader on arbitrary
// device contents. A size-byte blob is written and read once, warming the
// memo; patch then overwrites the device from byte offset at on, so it can
// damage or forge any part of the blob or of the blocks around it. Inputs
// stay small (a generated payload, a short patch) so that minimising an
// interesting input is cheap. Seeds live in testdata/fuzz/FuzzReadBlob.
func FuzzReadBlob(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint16, seed byte, at uint16, patch []byte) {
		const start, devBlocks = 1, 6
		payload := patterned(int(size)%(3*blockdev.BlockSize), seed)
		patch = patch[:min(len(patch), 256)]
		dev := blockdev.NewMemDisk(devBlocks)
		if _, err := WriteBlob(dev, start, testMagic, payload); err != nil {
			t.Fatal(err)
		}
		if got, _, err := ReadBlob(dev, start, testMagic); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("intact read failed: %v", err)
		}
		for off := int64(at) % (devBlocks * blockdev.BlockSize); len(patch) > 0 && off < devBlocks*blockdev.BlockSize; {
			b, lo := off/blockdev.BlockSize, off%blockdev.BlockSize
			blk, err := dev.ReadBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			n := copy(blk[lo:], patch)
			if err := dev.WriteBlock(b, blk); err != nil {
				t.Fatal(err)
			}
			patch, off = patch[n:], off+int64(n)
		}
		matchReference(t, dev, start, "patched")
	})
}
