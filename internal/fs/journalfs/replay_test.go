package journalfs

import (
	"bytes"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// eagerReplay is the reference recovery ReplayImages must match: the
// checkpoint image and every full-image record are decoded as they are
// read, each replacing the tree before it. LoadImage's tree is shared and
// read-only, so patches land on a clone of it.
func eagerReplay(dev blockdev.Device) (uint64, *fstree.Tree, int, error) {
	gen, committed, _, err := format.LoadImage(dev)
	if err != nil {
		return 0, nil, 0, err
	}
	tree := committed.Clone()
	replayed := format.ScanLog(dev, gen, func(d *codec.Decoder) error {
		kind := d.Byte()
		if kind == recFullImage {
			next, err := fstree.DecodeTree(d)
			if err == nil {
				tree = next
			}
			return err
		}
		rec, err := decodeDirect(kind, d)
		if err == nil {
			applyDirect(tree, rec)
		}
		return err
	})
	return gen, tree, replayed, nil
}

// TestLazyReplayMatchesEager records a workload whose journal holds direct-IO
// patches before its first full image, between images and after its last,
// and checks that on every prefix of its block writes, and on every torn,
// corrupted and misdirected variant of each write, Mount and ReplayImages
// recover the generation, record count and tree bytes the eager reference
// does, and fail where it fails.
func TestLazyReplayMatchesEager(t *testing.T) {
	h := newHarness(t, fixed())
	data := bytes.Repeat([]byte("journal "), 700) // images span blocks
	h.do(h.m.Create("/foo"))
	h.do(h.m.Write("/foo", 0, data))
	h.do(h.m.Sync()) // the checkpoint image holds /foo
	h.do(h.m.WriteDirect("/foo", 0, []byte("before the first image")))
	h.do(h.m.Mkdir("/A"))
	h.do(h.m.Create("/A/bar"))
	h.do(h.m.Fsync("/A/bar"))
	h.do(h.m.WriteDirect("/foo", 8192, []byte("between images")))
	h.do(h.m.Write("/A/bar", 0, data))
	h.do(h.m.SetXattr("/A/bar", "user.x", []byte("v")))
	h.do(h.m.Fsync("/A"))
	h.do(h.m.Rename("/A/bar", "/baz"))
	h.do(h.m.Fsync("/baz"))
	h.do(h.m.WriteDirect("/foo", 100, []byte("after the last image")))
	h.do(h.m.WriteDirect("/baz", 0, []byte("and once more")))
	h.cp()

	const records = 7 // 3 full images and 4 patches
	full := 0
	for _, kind := range []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt, blockdev.FaultMisdirect} {
		err := blockdev.ForEachFaultState(h.rec.Log(), kind, 512, func(st blockdev.FaultState, apply func(blockdev.Device) (int64, error)) bool {
			dev, mountDev := blockdev.NewSnapshot(h.base), blockdev.NewSnapshot(h.base)
			if _, err := apply(dev); err != nil {
				t.Fatal(err)
			}
			if _, err := apply(mountDev); err != nil {
				t.Fatal(err)
			}
			wantGen, want, wantN, wantErr := eagerReplay(dev)
			gen, got, n, err := diskfmt.ReplayImages(format, dev, decodeDirect, applyDirect)
			if (err == nil) != (wantErr == nil) || gen != wantGen || n != wantN {
				t.Fatalf("%s: lazy gen %d, %d records, error %v; eager gen %d, %d records, error %v",
					st.Desc, gen, n, err, wantGen, wantN, wantErr)
			}
			m, err := h.fs.Mount(mountDev)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: Mount error %v, eager error %v", st.Desc, err, wantErr)
			}
			if wantErr != nil {
				return true
			}
			if !bytes.Equal(encodeTree(got), encodeTree(want)) {
				t.Fatalf("%s: ReplayImages recovers a different tree", st.Desc)
			}
			if !bytes.Equal(encodeTree(m.(*mounted).Mem), encodeTree(want)) {
				t.Fatalf("%s: Mount recovers a different tree", st.Desc)
			}
			if wantN == records {
				full++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if full == 0 {
		t.Fatalf("no state replayed all %d records", records)
	}
}

func encodeTree(tree *fstree.Tree) []byte {
	e := codec.NewEncoder(0)
	tree.Encode(e)
	return e.Bytes()
}
