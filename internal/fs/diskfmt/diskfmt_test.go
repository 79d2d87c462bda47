package diskfmt

import (
	"bytes"
	"testing"
	"testing/quick"

	"b3/internal/blockdev"
	"b3/internal/codec"
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
	payloadOf := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7) + seed
		}
		return p
	}
	payloads := [][]byte{payloadOf(0, 0), payloadOf(1, 0), payloadOf(3*blockdev.BlockSize, 0)}
	// Payloads whose header+payload is one byte short of, exactly, and one
	// byte past a block (the checksum varint's length varies with content).
	for _, over := range []int{-1, 0, 1} {
	search:
		for n := blockdev.BlockSize - 32; n <= blockdev.BlockSize; n++ {
			for seed := 0; seed < 256; seed++ {
				p := payloadOf(n, byte(seed))
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
}
