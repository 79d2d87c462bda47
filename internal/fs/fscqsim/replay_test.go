package fscqsim

import (
	"bytes"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// eagerReplay is the reference recovery ReplayImages must match: it reads
// the log through ScanLog, outside the decoded-value memo, decoding every
// record as it is read; each full image replaces the tree before it, and
// patches land on it in place. LoadImage's tree is shared and read-only,
// so patches before the first full image land on a clone of it.
func eagerReplay(dev blockdev.Device) (uint64, *fstree.Tree, int, error) {
	gen, committed, _, err := format.LoadImage(dev)
	if err != nil {
		return 0, nil, 0, err
	}
	tree := committed.Clone()
	replayed := format.ScanLog(dev, gen, func(d *codec.Decoder) error {
		rec, err := decodeRecord(d)
		if err != nil {
			return err
		}
		if rec.tree != nil {
			tree = rec.tree
		} else {
			applyPatch(tree, rec)
		}
		return nil
	})
	return gen, tree, replayed, nil
}

// TestReplayImagesMatchesReference records a workload whose log holds
// fdatasync patches before its first full image, between images and after
// its last, and checks that on every prefix of its block writes, and on
// every torn, corrupted and misdirected variant of each write, Mount and
// ReplayImages recover the generation, record count and tree bytes
// eagerReplay does, and fail where it fails.
func TestReplayImagesMatchesReference(t *testing.T) {
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

	const total = 7 // 3 full images and 4 patches
	full := 0
	for _, kind := range []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt, blockdev.FaultMisdirect} {
		err := blockdev.ForEachFaultState(rec.Log(), kind, 512, func(st blockdev.FaultState, apply func(blockdev.Device) (int64, error)) bool {
			dev, mountDev := blockdev.NewSnapshot(base), blockdev.NewSnapshot(base)
			if _, err := apply(dev); err != nil {
				t.Fatal(err)
			}
			if _, err := apply(mountDev); err != nil {
				t.Fatal(err)
			}
			wantGen, want, wantN, wantErr := eagerReplay(dev)
			gen, got, n, err := diskfmt.ReplayImages(format, dev, records, recordImage, applyPatch)
			if (err == nil) != (wantErr == nil) || gen != wantGen || n != wantN {
				t.Fatalf("%s: ReplayImages gen %d, %d records, error %v; reference gen %d, %d records, error %v",
					st.String(), gen, n, err, wantGen, wantN, wantErr)
			}
			mnt, err := fs.Mount(mountDev)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: Mount error %v, reference error %v", st.String(), err, wantErr)
			}
			if wantErr != nil {
				return true
			}
			if !bytes.Equal(encodeTree(got), encodeTree(want)) {
				t.Fatalf("%s: ReplayImages recovers a different tree", st.String())
			}
			if !bytes.Equal(encodeTree(mnt.(*mounted).Mem), encodeTree(want)) {
				t.Fatalf("%s: Mount recovers a different tree", st.String())
			}
			if wantN == total {
				full++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if full == 0 {
		t.Fatalf("no state replayed all %d records", total)
	}
}

func encodeTree(tree *fstree.Tree) []byte {
	e := codec.NewEncoder(0)
	tree.Encode(e)
	return e.Bytes()
}
