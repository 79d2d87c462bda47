package diskfmt

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/fstree"
)

func encodeTree(tr *fstree.Tree) []byte {
	e := codec.NewEncoder(0)
	tr.Encode(e)
	return bytes.Clone(e.Bytes())
}

// sharedFixture returns a tree with a directory, a file with content and a
// hard link, and link counts stored wrong, so RecountLinks edits nodes.
func sharedFixture(t *testing.T) *fstree.Tree {
	t.Helper()
	tr := fstree.New()
	for _, err := range []error{
		second(tr.Mkdir("/A")), second(tr.Create("/A/f")),
		second(tr.Write("/A/f", 0, []byte("content"))), second(tr.Link("/A/f", "/g")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ino := range tr.Inos() {
		tr.Edit(ino).Nlink += 5
	}
	return tr
}

func second[T any](_ T, err error) error { return err }

// editShared recovers, then writes, a private tree the way the mounts do.
func editShared(tr *fstree.Tree) error {
	RecountLinks(tr)
	if _, err := tr.Create("/A/new"); err != nil {
		return err
	}
	if _, err := tr.Write("/A/f", 2, []byte("XY")); err != nil {
		return err
	}
	if _, _, err := tr.Rename("/g", "/A/h"); err != nil {
		return err
	}
	if _, err := tr.SetXattr("/A", "user.k", []byte("v")); err != nil {
		return err
	}
	tr.Edit(fstree.RootIno).Nlink = 9
	return nil
}

// TestSharedImageClonesConcurrently: goroutines mount one image, and one
// full-image log record, that the memo decoded once, clone the shared
// tree and edit their clones through mutators, Edit and RecountLinks.
// Every clone must end as a private decode would, and the shared trees
// must not change. Run it under -race.
func TestSharedImageClonesConcurrently(t *testing.T) {
	f := Format{Name: "test", Super: testMagic + 1, Image: testMagic, Record: testMagic + 2}
	dev := blockdev.NewMemDisk(logStart + logReserveBlocks)
	fixture := sharedFixture(t)
	if err := f.WriteImage(dev, 1, fstree.New(), nil); err != nil {
		t.Fatal(err)
	}
	e := codec.NewEncoder(0)
	e.Uint64(1)
	e.Uint64(1)
	e.Byte(RecFullImage)
	fixture.Encode(e)
	if _, err := WriteBlob(dev, logStart, f.Record, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	imageDev := blockdev.NewMemDisk(logStart)
	if err := f.WriteImage(imageDev, 1, fixture, nil); err != nil {
		t.Fatal(err)
	}

	stored := encodeTree(fixture)
	want := fixture.Clone()
	if err := editShared(want); err != nil {
		t.Fatal(err)
	}
	wantBytes := encodeTree(want)

	clearVerified()
	_, image, _, err := f.LoadImage(imageDev)
	if err != nil {
		t.Fatal(err)
	}
	fullImages := NewDecoder(func(d *codec.Decoder) (*fstree.Tree, error) {
		if d.Byte() != RecFullImage {
			return nil, errors.New("no patches")
		}
		return fstree.DecodeTree(d)
	}, (*fstree.Tree).Footprint)
	replay := func() (*fstree.Tree, error) {
		_, tr, n, err := ReplayImages(f, dev, fullImages,
			func(tr *fstree.Tree) *fstree.Tree { return tr }, func(*fstree.Tree, *fstree.Tree) {})
		if err == nil && n != 1 {
			err = fmt.Errorf("replayed %d records, want 1", n)
		}
		return tr, err
	}
	if _, err := replay(); err != nil { // decodes the record into the memo
		t.Fatal(err)
	}

	const workers = 8
	errs := make(chan error, 4*workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, loaded, _, err := f.LoadImage(imageDev)
			if err != nil {
				errs <- err
				return
			}
			if loaded != image {
				errs <- errors.New("LoadImage decoded an image the memo holds")
			}
			replayed, err := replay()
			if err != nil {
				errs <- err
				return
			}
			for _, tr := range []*fstree.Tree{loaded.Clone(), replayed} {
				if err := editShared(tr); err != nil {
					errs <- err
				} else if !bytes.Equal(encodeTree(tr), wantBytes) {
					errs <- errors.New("an edited clone of a shared tree differs from a private edit")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !bytes.Equal(encodeTree(image), stored) {
		t.Error("editing clones changed the image the memo shares")
	}
	if tr, err := replay(); err != nil || !bytes.Equal(encodeTree(tr), stored) {
		t.Errorf("editing clones changed the log record's tree the memo shares (%v)", err)
	}
}
