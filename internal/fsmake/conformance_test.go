package fsmake

import (
	"errors"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

// everyMethod calls each of the 28 filesys.MountedFS methods once, with
// arguments that succeed on the tree conformanceTree builds.
var everyMethod = []struct {
	name string
	call func(m filesys.MountedFS) error
}{
	{"Create", func(m filesys.MountedFS) error { return m.Create("/new") }},
	{"Mkdir", func(m filesys.MountedFS) error { return m.Mkdir("/newdir") }},
	{"Symlink", func(m filesys.MountedFS) error { return m.Symlink("/file", "/newsym") }},
	{"Mkfifo", func(m filesys.MountedFS) error { return m.Mkfifo("/newpipe") }},
	{"Link", func(m filesys.MountedFS) error { return m.Link("/file", "/newlink") }},
	{"Unlink", func(m filesys.MountedFS) error { return m.Unlink("/dir/child") }},
	{"Rmdir", func(m filesys.MountedFS) error { return m.Rmdir("/empty") }},
	{"Rename", func(m filesys.MountedFS) error { return m.Rename("/newlink", "/renamed") }},
	{"Truncate", func(m filesys.MountedFS) error { return m.Truncate("/file", 1) }},
	{"Write", func(m filesys.MountedFS) error { return m.Write("/file", 0, []byte("w")) }},
	{"WriteDirect", func(m filesys.MountedFS) error { return m.WriteDirect("/file", 0, []byte("d")) }},
	{"MWrite", func(m filesys.MountedFS) error { return m.MWrite("/file", 0, []byte("m")) }},
	{"Falloc", func(m filesys.MountedFS) error { return m.Falloc("/file", filesys.FallocDefault, 0, 4096) }},
	{"SetXattr", func(m filesys.MountedFS) error { return m.SetXattr("/file", "user.new", []byte("v")) }},
	{"RemoveXattr", func(m filesys.MountedFS) error { return m.RemoveXattr("/file", "user.k") }},
	{"Fsync", func(m filesys.MountedFS) error { return m.Fsync("/file") }},
	{"Fdatasync", func(m filesys.MountedFS) error { return m.Fdatasync("/file") }},
	{"MSync", func(m filesys.MountedFS) error { return m.MSync("/file", 0, 4096) }},
	{"Sync", func(m filesys.MountedFS) error { return m.Sync() }},
	{"Stat", func(m filesys.MountedFS) error { _, err := m.Stat("/file"); return err }},
	{"ReadFile", func(m filesys.MountedFS) error { _, err := m.ReadFile("/file"); return err }},
	{"ReadDir", func(m filesys.MountedFS) error { _, err := m.ReadDir("/dir"); return err }},
	{"ReadLink", func(m filesys.MountedFS) error { _, err := m.ReadLink("/sym"); return err }},
	{"ListXattr", func(m filesys.MountedFS) error { _, err := m.ListXattr("/file"); return err }},
	{"Extents", func(m filesys.MountedFS) error { _, err := m.Extents("/file"); return err }},
	{"Unmount", func(m filesys.MountedFS) error { return m.Unmount() }},
}

// conformanceTree formats a device and builds /file (data, xattr), /dir,
// /dir/child, /empty and /sym on a fresh mount of it.
func conformanceTree(t *testing.T, fs filesys.FileSystem) (*blockdev.MemDisk, filesys.MountedFS) {
	t.Helper()
	dev := blockdev.NewMemDisk(8192)
	if err := fs.Mkfs(dev); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	m, err := fs.Mount(dev)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	for _, err := range []error{
		m.Create("/file"),
		m.Write("/file", 0, []byte("payload bytes")),
		m.SetXattr("/file", "user.k", []byte("value")),
		m.Mkdir("/dir"),
		m.Create("/dir/child"),
		m.Mkdir("/empty"),
		m.Symlink("/file", "/sym"),
	} {
		if err != nil {
			t.Fatalf("build tree: %v", err)
		}
	}
	return dev, m
}

func remount(t *testing.T, fs filesys.FileSystem, dev blockdev.Device) filesys.MountedFS {
	t.Helper()
	crash := blockdev.NewSnapshot(dev)
	m, err := fs.Mount(crash)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	return m
}

// TestMountedFSConformance holds every backend to the same MountedFS and
// FileSystem contract: one table instead of a copy per backend.
func TestMountedFSConformance(t *testing.T) {
	for _, name := range Names() {
		fs, err := Fixed(name)
		if err != nil {
			t.Fatal(err)
		}

		t.Run(name+"/every-method-works", func(t *testing.T) {
			_, m := conformanceTree(t, fs)
			for _, meth := range everyMethod {
				if err := meth.call(m); err != nil {
					t.Errorf("%s: %v", meth.name, err)
				}
			}
		})

		t.Run(name+"/error-classes", func(t *testing.T) {
			_, m := conformanceTree(t, fs)
			if _, err := m.Stat("/missing"); !errors.Is(err, filesys.ErrNotExist) {
				t.Errorf("Stat of a missing path: %v, want ErrNotExist", err)
			}
			if _, err := m.ReadFile("/missing"); !errors.Is(err, filesys.ErrNotExist) {
				t.Errorf("ReadFile of a missing path: %v, want ErrNotExist", err)
			}
			if err := m.Fsync("/missing"); !errors.Is(err, filesys.ErrNotExist) {
				t.Errorf("Fsync of a missing path: %v, want ErrNotExist", err)
			}
			if _, err := m.ReadFile("/dir"); !errors.Is(err, filesys.ErrIsDir) {
				t.Errorf("ReadFile of a directory: %v, want ErrIsDir", err)
			}
			if _, err := m.ReadLink("/file"); !errors.Is(err, filesys.ErrInvalid) {
				t.Errorf("ReadLink of a regular file: %v, want ErrInvalid", err)
			}
			if err := m.Create("/file"); !errors.Is(err, filesys.ErrExist) {
				t.Errorf("Create over an existing name: %v, want ErrExist", err)
			}
			if err := m.Rmdir("/dir"); !errors.Is(err, filesys.ErrNotEmpty) {
				t.Errorf("Rmdir of a non-empty directory: %v, want ErrNotEmpty", err)
			}
		})

		t.Run(name+"/reads-return-copies", func(t *testing.T) {
			_, m := conformanceTree(t, fs)
			if err := m.Falloc("/file", filesys.FallocDefault, 0, 8192); err != nil {
				t.Fatal(err)
			}
			data, err := m.ReadFile("/file")
			if err != nil || len(data) == 0 {
				t.Fatalf("ReadFile: %q, %v", data, err)
			}
			data[0] ^= 0xff
			xattrs, err := m.ListXattr("/file")
			if err != nil || len(xattrs["user.k"]) == 0 {
				t.Fatalf("ListXattr: %v, %v", xattrs, err)
			}
			xattrs["user.k"][0] ^= 0xff
			xattrs["user.injected"] = []byte("x")
			extents, err := m.Extents("/file")
			if err != nil || len(extents) == 0 {
				t.Fatalf("Extents: %v, %v", extents, err)
			}
			extents[0].Len = -1

			if again, _ := m.ReadFile("/file"); again[0] == data[0] {
				t.Error("ReadFile returned a slice aliasing tree memory")
			}
			again, _ := m.ListXattr("/file")
			if again["user.k"][0] == xattrs["user.k"][0] || len(again) != 1 {
				t.Errorf("ListXattr returned a map or value aliasing tree memory: %v", again)
			}
			if again, _ := m.Extents("/file"); again[0].Len == -1 {
				t.Error("Extents returned a slice aliasing tree memory")
			}
		})

		// A harness use-after-unmount must surface as an error, not
		// silently serve (or change) the stale in-memory tree.
		t.Run(name+"/every-method-errors-after-unmount", func(t *testing.T) {
			_, m := conformanceTree(t, fs)
			if err := m.Unmount(); err != nil {
				t.Fatal(err)
			}
			for _, meth := range everyMethod {
				if err := meth.call(m); !errors.Is(err, filesys.ErrInvalid) {
					t.Errorf("%s after Unmount: %v, want ErrInvalid", meth.name, err)
				}
			}
		})

		t.Run(name+"/mkfs-rejects-tiny-device", func(t *testing.T) {
			for _, blocks := range []int64{16, 128, 2049} {
				if err := fs.Mkfs(blockdev.NewMemDisk(blocks)); !errors.Is(err, filesys.ErrInvalid) {
					t.Errorf("Mkfs on %d blocks: %v, want ErrInvalid", blocks, err)
				}
			}
		})

		// An image that does not fit its region must fail before the first
		// block is written: the spill would land in the other region, which
		// holds the committed generation.
		t.Run(name+"/oversized-checkpoint-keeps-previous-generation", func(t *testing.T) {
			dev, m := conformanceTree(t, fs)
			// Two checkpoints, so the oversized one targets the lower
			// region and its spill would reach the committed upper one.
			if err := errors.Join(m.Sync(), m.Sync()); err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(m.Create("/big"), m.Write("/big", 0, make([]byte, 5<<20))); err != nil {
				t.Fatal(err)
			}
			if err := m.Sync(); err == nil {
				t.Fatal("checkpoint of a 5 MiB file into a 4 MiB region succeeded")
			}
			prev := remount(t, fs, dev)
			if _, err := prev.Stat("/file"); err != nil {
				t.Errorf("committed generation lost /file: %v", err)
			}
			if _, err := prev.Stat("/big"); !errors.Is(err, filesys.ErrNotExist) {
				t.Errorf("failed checkpoint leaked /big: %v", err)
			}
			// The handle stays usable: once the image fits, it commits.
			if err := errors.Join(m.Truncate("/big", 0), m.Sync()); err != nil {
				t.Fatalf("checkpoint after shrinking: %v", err)
			}
			if st, err := remount(t, fs, dev).Stat("/big"); err != nil || st.Size != 0 {
				t.Errorf("retried checkpoint: /big = %+v, %v", st, err)
			}
		})
	}
}
