package fscqsim

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
// read, each replacing the tree before it.
func eagerReplay(dev blockdev.Device) (uint64, *fstree.Tree, int, error) {
	gen, tree, _, err := format.LoadImage(dev)
	if err != nil {
		return 0, nil, 0, err
	}
	replayed := format.ScanLog(dev, gen, func(d *codec.Decoder) error {
		kind := d.Byte()
		if kind == recFullImage {
			next, err := fstree.DecodeTree(d)
			if err == nil {
				tree = next
			}
			return err
		}
		rec, err := decodePatch(kind, d)
		if err == nil {
			applyPatch(tree, rec)
		}
		return err
	})
	return gen, tree, replayed, nil
}

// TestLazyReplayMatchesEager records a workload whose log holds fdatasync
// patches before its first full image, between images and after its last,
// and checks that on every prefix of its block writes, and on every torn,
// corrupted and misdirected variant of each write, Mount and ReplayImages
// recover the generation, record count and tree bytes the eager reference
// does, and fail where it fails.
func TestLazyReplayMatchesEager(t *testing.T) {
	fs := fixed()
	base, rec, m := setup(t, fs)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("verified "), 600) // images span blocks
	must(m.Create("/foo"))
	must(m.Write("/foo", 0, data))
	must(m.Sync()) // the checkpoint image holds /foo
	must(m.Write("/foo", 100, []byte("before the first image")))
	must(m.Fdatasync("/foo"))
	must(m.Mkdir("/A"))
	must(m.Create("/A/bar"))
	must(m.Fsync("/A/bar"))
	must(m.Write("/foo", 8192, []byte("between images")))
	must(m.Fdatasync("/foo"))
	must(m.Write("/A/bar", 0, data))
	must(m.SetXattr("/A/bar", "user.x", []byte("v")))
	must(m.Fsync("/A"))
	must(m.Rename("/A/bar", "/baz"))
	must(m.Fsync("/baz"))
	must(m.Truncate("/foo", 50))
	must(m.Fdatasync("/foo"))
	must(m.Write("/baz", 0, []byte("after the last image")))
	must(m.Fdatasync("/baz"))
	rec.Checkpoint()

	const records = 7 // 3 full images and 4 patches
	full := 0
	for _, kind := range []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt, blockdev.FaultMisdirect} {
		err := blockdev.ForEachFaultState(rec.Log(), kind, 512, func(st blockdev.FaultState, apply func(blockdev.Device) error) bool {
			dev, mountDev := blockdev.NewSnapshot(base), blockdev.NewSnapshot(base)
			if err := apply(dev); err != nil {
				t.Fatal(err)
			}
			if err := apply(mountDev); err != nil {
				t.Fatal(err)
			}
			wantGen, want, wantN, wantErr := eagerReplay(dev)
			gen, got, n, err := diskfmt.ReplayImages(format, dev, decodePatch, applyPatch)
			if (err == nil) != (wantErr == nil) || gen != wantGen || n != wantN {
				t.Fatalf("%s: lazy gen %d, %d records, error %v; eager gen %d, %d records, error %v",
					st.Desc, gen, n, err, wantGen, wantN, wantErr)
			}
			mnt, err := fs.Mount(mountDev)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: Mount error %v, eager error %v", st.Desc, err, wantErr)
			}
			if wantErr != nil {
				return true
			}
			if !bytes.Equal(encodeTree(got), encodeTree(want)) {
				t.Fatalf("%s: ReplayImages recovers a different tree", st.Desc)
			}
			if !bytes.Equal(encodeTree(mnt.(*mounted).Mem), encodeTree(want)) {
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
