package diskfmt

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/fstree"
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

// TestReadBlobMatchesReference damages a blob the way the fault axis does,
// block by block, after a successful read has memoised its payload: every
// read must agree with the reference reader, and re-reading the intact blob
// must still return its payload.
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
				if got := small.intern(blobKey{sum: uint64(i % 5)}, in); !bytes.Equal(got, in) {
					t.Errorf("intern %d returned other bytes", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPayloadMemo pins the memo's contract: a hit shares the memoised slice
// only on equal bytes, a miss returns an exact-size copy it does not alias,
// and the budget bounds what is held by starting over.
func TestPayloadMemo(t *testing.T) {
	const size = 100
	const budget = 4 * (size + memoEntryCost)
	c := newPayloadMemo(budget)
	key := func(i int) blobKey { return blobKey{magic: testMagic, n: size, sum: uint64(i)} }

	in := patterned(size, 0)
	first := c.intern(key(0), in)
	in[0] ^= 0xFF
	if first[0] == in[0] || cap(first) != size {
		t.Fatal("a miss must return an exact-size copy of its input")
	}
	if again := c.intern(key(0), patterned(size, 0)); &again[0] != &first[0] {
		t.Fatal("equal bytes under one key must share the memoised payload")
	}
	other := patterned(size, 1)
	if got := c.intern(key(0), other); !bytes.Equal(got, other) {
		t.Fatal("unequal bytes under one key must not return the memoised payload")
	}

	for i := 1; i < 4; i++ {
		c.intern(key(i), patterned(size, byte(i)))
	}
	if len(c.m) != 4 || c.used != budget {
		t.Fatalf("full memo: %d entries, %d bytes used; want 4, %d", len(c.m), c.used, budget)
	}
	c.intern(key(4), patterned(size, 4))
	if len(c.m) != 1 || c.used != size+memoEntryCost {
		t.Fatalf("after overflow: %d entries, %d bytes used; want a reset to 1", len(c.m), c.used)
	}
	big := patterned(budget, 5)
	if got := c.intern(blobKey{n: budget}, big); !bytes.Equal(got, big) || len(c.m) != 1 {
		t.Fatal("a payload over the whole budget must be copied but not memoised")
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
