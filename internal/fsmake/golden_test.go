package fsmake

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
)

// goldenBlocks is just above every backend's minimum device.
const goldenBlocks = 2400

// deviceDigest is FNV-64a over every block ever written to s, in block
// order, each prefixed with its index. s sits on a base that nothing else
// writes, so its overlay is exactly the set of blocks that can differ from
// the base — hashing it covers the whole device without reading the
// megabytes that are zero by construction.
func deviceDigest(t *testing.T, s *blockdev.Snapshot) uint64 {
	t.Helper()
	h := fnv.New64a()
	var idx [8]byte
	for _, n := range s.DirtyBlocks() {
		blk, err := s.ReadBlockView(n)
		if err != nil {
			t.Fatalf("read block %d: %v", n, err)
		}
		binary.LittleEndian.PutUint64(idx[:], uint64(n))
		h.Write(idx[:])
		h.Write(blk)
	}
	return h.Sum64()
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i*7)
	}
	return out
}

// goldenScript drives every mutating and persistence method of MountedFS in
// a fixed order. persist marks the steps after which the device is digested.
var goldenScript = []struct {
	name    string
	persist bool
	run     func(m filesys.MountedFS) error
}{
	{"create /foo", false, func(m filesys.MountedFS) error { return m.Create("/foo") }},
	{"mkdir /A", false, func(m filesys.MountedFS) error { return m.Mkdir("/A") }},
	{"write /foo", false, func(m filesys.MountedFS) error { return m.Write("/foo", 0, pattern(10000, 1)) }},
	{"fsync /foo", true, func(m filesys.MountedFS) error { return m.Fsync("/foo") }},
	{"link /foo /A/bar", false, func(m filesys.MountedFS) error { return m.Link("/foo", "/A/bar") }},
	{"rename /A/bar /A/baz", false, func(m filesys.MountedFS) error { return m.Rename("/A/bar", "/A/baz") }},
	{"truncate /foo", false, func(m filesys.MountedFS) error { return m.Truncate("/foo", 6000) }},
	{"fsync /A", true, func(m filesys.MountedFS) error { return m.Fsync("/A") }},
	{"falloc /foo", false, func(m filesys.MountedFS) error {
		return m.Falloc("/foo", filesys.FallocDefault, 8192, 4096)
	}},
	{"fdatasync /foo", true, func(m filesys.MountedFS) error { return m.Fdatasync("/foo") }},
	{"falloc -k /foo", false, func(m filesys.MountedFS) error {
		return m.Falloc("/foo", filesys.FallocKeepSize, 16384, 8192)
	}},
	{"fdatasync /foo (alloc only)", true, func(m filesys.MountedFS) error { return m.Fdatasync("/foo") }},
	{"punch_hole /foo", false, func(m filesys.MountedFS) error {
		return m.Falloc("/foo", filesys.FallocPunchHole, 0, 4096)
	}},
	{"zero_range -k /foo", false, func(m filesys.MountedFS) error {
		return m.Falloc("/foo", filesys.FallocZeroRangeKeepSize, 12288, 8192)
	}},
	{"setxattr a", false, func(m filesys.MountedFS) error { return m.SetXattr("/foo", "user.a", []byte("one")) }},
	{"setxattr b", false, func(m filesys.MountedFS) error { return m.SetXattr("/foo", "user.b", []byte("two")) }},
	{"removexattr a", false, func(m filesys.MountedFS) error { return m.RemoveXattr("/foo", "user.a") }},
	{"fsync /foo (meta)", true, func(m filesys.MountedFS) error { return m.Fsync("/foo") }},
	{"mwrite /foo", false, func(m filesys.MountedFS) error { return m.MWrite("/foo", 100, pattern(300, 9)) }},
	{"msync /foo", true, func(m filesys.MountedFS) error { return m.MSync("/foo", 0, 4096) }},
	{"dwrite /foo", true, func(m filesys.MountedFS) error { return m.WriteDirect("/foo", 12288, pattern(4096, 5)) }},
	{"symlink", false, func(m filesys.MountedFS) error { return m.Symlink("/foo", "/A/sym") }},
	{"mkfifo", false, func(m filesys.MountedFS) error { return m.Mkfifo("/A/pipe") }},
	{"create /A/tmp", false, func(m filesys.MountedFS) error { return m.Create("/A/tmp") }},
	{"unlink /A/tmp", false, func(m filesys.MountedFS) error { return m.Unlink("/A/tmp") }},
	{"mkdir /A/D", false, func(m filesys.MountedFS) error { return m.Mkdir("/A/D") }},
	{"rmdir /A/D", false, func(m filesys.MountedFS) error { return m.Rmdir("/A/D") }},
	{"sync", true, func(m filesys.MountedFS) error { return m.Sync() }},
	{"create /A/new", false, func(m filesys.MountedFS) error { return m.Create("/A/new") }},
	{"write /A/new", false, func(m filesys.MountedFS) error { return m.Write("/A/new", 0, pattern(5000, 3)) }},
	{"rename /A/new /new", false, func(m filesys.MountedFS) error { return m.Rename("/A/new", "/new") }},
	{"fsync /new", true, func(m filesys.MountedFS) error { return m.Fsync("/new") }},
	{"create /A/x", false, func(m filesys.MountedFS) error { return m.Create("/A/x") }},
	{"link /A/x /A/y", false, func(m filesys.MountedFS) error { return m.Link("/A/x", "/A/y") }},
	{"rename /A/x /A/y (onto own link)", false, func(m filesys.MountedFS) error { return m.Rename("/A/x", "/A/y") }},
	{"fsync /A (own link)", true, func(m filesys.MountedFS) error { return m.Fsync("/A") }},
	{"create /A/z", false, func(m filesys.MountedFS) error { return m.Create("/A/z") }},
	{"rename /A/z /new (over file)", false, func(m filesys.MountedFS) error { return m.Rename("/A/z", "/new") }},
	{"mkdir /A/E", false, func(m filesys.MountedFS) error { return m.Mkdir("/A/E") }},
	{"mkdir /A/F", false, func(m filesys.MountedFS) error { return m.Mkdir("/A/F") }},
	{"rename /A/E /A/F (over empty dir)", false, func(m filesys.MountedFS) error { return m.Rename("/A/E", "/A/F") }},
	{"fsync /new (replaced)", true, func(m filesys.MountedFS) error { return m.Fsync("/new") }},
	{"unlink /A/x (not last link)", false, func(m filesys.MountedFS) error { return m.Unlink("/A/x") }},
	{"unlink /A/y (last link)", false, func(m filesys.MountedFS) error { return m.Unlink("/A/y") }},
	{"fsync /A (unlinks)", true, func(m filesys.MountedFS) error { return m.Fsync("/A") }},
	{"write /foo (lost)", false, func(m filesys.MountedFS) error { return m.Write("/foo", 0, pattern(100, 4)) }},
	{"unmount", true, func(m filesys.MountedFS) error { return m.Unmount() }},
}

// runGolden executes goldenScript on a fresh device and returns, per
// persistence step, the device digest and the digest of what Mount's
// recovery wrote to a copy-on-write fork of that crash state (0 when Mount
// fails, as it legitimately may with the unmountable-bug toggles on). A
// non-nil observe sees the live mount after every step, and each mount
// that recovered.
func runGolden(t *testing.T, fs filesys.FileSystem, observe func(filesys.MountedFS)) []uint64 {
	t.Helper()
	dev := blockdev.NewSnapshot(blockdev.NewMemDisk(goldenBlocks))
	defer dev.Release()
	if err := fs.Mkfs(dev); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	out := []uint64{deviceDigest(t, dev)}
	m, err := fs.Mount(dev)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	for _, step := range goldenScript {
		if err := step.run(m); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if observe != nil {
			observe(m)
		}
		if !step.persist {
			continue
		}
		out = append(out, deviceDigest(t, dev))
		crash := blockdev.NewSnapshot(dev)
		var recovered uint64
		if rm, err := fs.Mount(crash); err == nil {
			recovered = deviceDigest(t, crash)
			if observe != nil {
				observe(rm)
			}
		}
		out = append(out, recovered)
		crash.Release()
	}
	return out
}

// TestGoldenDeviceBytes pins the exact bytes every backend puts on the
// device: digests were last re-recorded when the script gained its
// namespace rows (rename onto an own link, over a file and over an empty
// directory; unlink of a non-last and then the last link), so any drift in
// an image,
// superblock, log record or recovery checkpoint — and with it every campaign
// fingerprint, state count and prune ratio — fails here first.
func TestGoldenDeviceBytes(t *testing.T) {
	for _, name := range Names() {
		allBugs := map[string]bool{}
		for _, b := range bugs.ForFS(name) {
			allBugs[b.ID] = true
		}
		for _, cfg := range []struct {
			label    string
			override map[string]bool
		}{{"fixed", map[string]bool{}}, {"bugs", allBugs}} {
			key := name + "/" + cfg.label
			t.Run(key, func(t *testing.T) {
				fs, err := New(name, bugs.Latest, cfg.override)
				if err != nil {
					t.Fatal(err)
				}
				got := runGolden(t, fs, nil)
				if slices.Equal(got, goldenDigests[key]) {
					return
				}
				var b strings.Builder
				for _, d := range got {
					fmt.Fprintf(&b, "%#016x, ", d)
				}
				t.Errorf("device bytes moved; got\n\t%q: {%s},", key, strings.TrimSuffix(b.String(), " "))
			})
		}
	}
}

// TestGoldenLogfsDirSizes pins the directory sizes logfs reports: its Stat
// serves a directory's entry-byte accounting, which the namespace
// operations keep and recovery rebuilds. It records the sizes of / and /A
// (-1 where Stat fails) on the live mount after every step of goldenScript
// and on every mount recovered from a persistence step.
func TestGoldenLogfsDirSizes(t *testing.T) {
	for _, label := range []string{"fixed", "bugs"} {
		t.Run(label, func(t *testing.T) {
			override := map[string]bool{}
			if label == "bugs" {
				for _, b := range bugs.ForFS("logfs") {
					override[b.ID] = true
				}
			}
			fs, err := New("logfs", bugs.Latest, override)
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			runGolden(t, fs, func(m filesys.MountedFS) {
				for _, dir := range []string{"/", "/A"} {
					size := int64(-1)
					if st, err := m.Stat(dir); err == nil {
						size = st.Size
					}
					got = append(got, size)
				}
			})
			if !slices.Equal(got, goldenDirSizes[label]) {
				t.Errorf("logfs directory sizes moved; got\n\t%q: %#v,", label, got)
			}
		})
	}
}

// goldenDirSizes: (/, /A) on the live mount after each step, then on the
// recovered mount after a persistence step that recovers.
var goldenDirSizes = map[string][]int64{
	"fixed": {
		11, -1, 20, 0, 20, 0, 20, 0, 11, -1, 20, 11,
		20, 11, 20, 11, 20, 11, 20, 11, 20, 11, 20, 11,
		20, 11, 20, 11, 20, 11, 20, 11, 20, 11, 20, 11,
		20, 11, 20, 11, 20, 11, 20, 11, 20, 11, 20, 11,
		20, 11, 20, 11, 20, 11, 20, 11, 20, 22, 20, 34,
		20, 45, 20, 34, 20, 43, 20, 34, 20, 34, 20, 34,
		20, 45, 20, 45, 31, 34, 31, 34, 31, 34, 31, 43,
		31, 52, 31, 52, 31, 52, 31, 52, 31, 61, 31, 52,
		31, 61, 31, 70, 31, 61, 31, 61, 31, 52, 31, 52,
		31, 43, 31, 43, 31, 43, 31, 43, -1, -1, 31, 43,
	},
	"bugs": {
		11, -1, 20, 0, 20, 0, 20, 0, 11, -1, 20, 11,
		20, 11, 20, 11, 20, 11, 20, 0, 20, 11, 20, 11,
		20, 0, 20, 11, 20, 11, 20, 0, 20, 11, 20, 11,
		20, 11, 20, 11, 20, 11, 20, 11, 20, 0, 20, 11,
		20, 11, 20, 0, 20, 11, 20, 0, 20, 22, 20, 34,
		20, 45, 20, 34, 20, 43, 20, 34, 20, 34, 20, 34,
		20, 45, 20, 45, 31, 34, 31, 34, 20, 34, 31, 43,
		31, 52, 31, 52, 31, 52, 20, 34, 31, 61, 31, 52,
		31, 61, 31, 70, 31, 61, 31, 61, 20, 34, 31, 52,
		31, 43, 31, 43, 20, 43, 31, 43, -1, -1, 31, 43,
	},
}

// goldenDigests: mkfs, then (device, recovered fork) per persistence step.
var goldenDigests = map[string][]uint64{
	"logfs/fixed": {
		0x153edb01c8d0bc36, 0x5390811709cf1c5d, 0x02c5c207469c6282,
		0x7470448fd684b5d0, 0x90d8b2b929b4dd84, 0x49807857ba8abc55,
		0x36c1666158d52c6d, 0xa377487e4ee1a162, 0xa55cb980842e0c70,
		0x2795744e12f71913, 0xb4f1113fc51da649, 0x1ae8d717b955e94d,
		0x3f838e76d965c93e, 0x879dacb609127a9f, 0x56f8aac34d9346d4,
		0x57e268ad03f39ed5, 0xcbf29ce484222325, 0x986d4ab1c2f3a769,
		0x175baa76e4f41828, 0x54e917f5fab0157f, 0xe3d6beeb66a29a50,
		0x3e9f3ce59fc6e7da, 0x7388e038d8b9968c, 0xe431ab8701865d2f,
		0x3dda6fca70811faa, 0xa981c4e0f45f0ee4, 0xcbf29ce484222325,
	},
	"logfs/bugs": {
		0x153edb01c8d0bc36, 0x5390811709cf1c5d, 0xfff7fe571a9d326c,
		0x1910d0c7588f34a0, 0x17698db157f5016d, 0x1910d0c7588f34a0,
		0x17698db157f5016d, 0x1910d0c7588f34a0, 0x17698db157f5016d,
		0x1910d0c7588f34a0, 0x17698db157f5016d, 0x1910d0c7588f34a0,
		0x17698db157f5016d, 0x1910d0c7588f34a0, 0x17698db157f5016d,
		0x4388ce74a2b15b4e, 0xcbf29ce484222325, 0x56b2e10e8ffa4e86,
		0xecd0e5d4963ac6fe, 0x56b2e10e8ffa4e86, 0xecd0e5d4963ac6fe,
		0x2a730c8b11c09848, 0xecd0e5d4963ac6fe, 0x28ee1cf7920a88f6,
		0xe3312256e1902b8c, 0x9b663048aa859331, 0xcbf29ce484222325,
	},
	"journalfs/fixed": {
		0x0f3d4fe7143d1b0d, 0x2fd3025ac1b7ee15, 0xd054acf9922f5110,
		0x7175a444b0f8c216, 0xc7891ae078f8515a, 0x660257b846f6261c,
		0xcfe78976b4e04c73, 0x7620e037d9d43b6f, 0x07e7674909ce2e07,
		0x20ed50c2bed70b71, 0x5be2e42d5c5d5517, 0xeb2879b1517bde37,
		0xd78ab05e27328c26, 0xb2181b8e732baa2b, 0x716e2a72d001e315,
		0x2f714dc62de0bff4, 0xcbf29ce484222325, 0x3667dcbd78f562c2,
		0xcbd47be97b8141fa, 0xe899c5699aaf1f27, 0x0ac1447f1da8c17c,
		0x2bd9dcd3cc19cc10, 0xfd13e49e2819b5b9, 0x2ca32a4427e7920c,
		0x57a3e509dc40fbfa, 0x90c09445e8bf1467, 0xcbf29ce484222325,
	},
	"journalfs/bugs": {
		0x0f3d4fe7143d1b0d, 0x2fd3025ac1b7ee15, 0xd054acf9922f5110,
		0x7175a444b0f8c216, 0xc7891ae078f8515a, 0x660257b846f6261c,
		0xcfe78976b4e04c73, 0x660257b846f6261c, 0xcfe78976b4e04c73,
		0x5c64665809b81b5f, 0x5be2e42d5c5d5517, 0x21ea5aba29a11fb4,
		0xd78ab05e27328c26, 0x272d41531cad5995, 0xd78ab05e27328c26,
		0x8a6146365dbf8812, 0xcbf29ce484222325, 0xd4d241aee55306d0,
		0xcbd47be97b8141fa, 0x40e0f3f70440ee11, 0x0ac1447f1da8c17c,
		0xadb903ae4818e7f7, 0xfd13e49e2819b5b9, 0x95fd09e8dde77564,
		0x57a3e509dc40fbfa, 0x1727cef90fb12ea7, 0xcbf29ce484222325,
	},
	"f2fsim/fixed": {
		0x0d8e1b5382671896, 0xfa2cb5e3a2676c35, 0x288c0d84219c8116,
		0x1a5bb3b9c7082b11, 0xcbf29ce484222325, 0xdc73948cf9191232,
		0xf03ecc79e02d2378, 0x2228a7fddb2225c2, 0xc6941525f26a6462,
		0x56ee50876685beb0, 0x21b440bf45e04e38, 0xd3b71c47d1140b12,
		0x48ebe6efa571eedf, 0x52511d43ab80c98f, 0xe4f7f223698da03a,
		0x709e3ffc256a9fa4, 0xcbf29ce484222325, 0x9afedf25b87f98dc,
		0x608cd9a0e62a4316, 0xb7825bcf37b54211, 0xcbf29ce484222325,
		0x3343d0c62b18e4c0, 0x2acde839ae45d8ed, 0x4137d6fae2c8b73e,
		0xcbf29ce484222325, 0x60b6e40e653c5fd6, 0xcbf29ce484222325,
	},
	"f2fsim/bugs": {
		0x0d8e1b5382671896, 0xfa2cb5e3a2676c35, 0x288c0d84219c8116,
		0x1a5bb3b9c7082b11, 0xcbf29ce484222325, 0xdc73948cf9191232,
		0xf03ecc79e02d2378, 0xdc73948cf9191232, 0xf03ecc79e02d2378,
		0xad011350638682e2, 0x8ad158a2281ceaeb, 0xb1e37d8ee39d19d0,
		0x48ebe6efa571eedf, 0xa4e2ad597c3a375f, 0xe4f7f223698da03a,
		0x19e84f6f0f241640, 0xcbf29ce484222325, 0xcd5ad28cf90c8d68,
		0x608cd9a0e62a4316, 0x67c43d9d7d7a7b79, 0xcbf29ce484222325,
		0x6aded3134488e134, 0x2acde839ae45d8ed, 0x932c77b44e72c2d2,
		0xcbf29ce484222325, 0xf3b5cd1a242dd21a, 0xcbf29ce484222325,
	},
	"fscqsim/fixed": {
		0x8f9a4a04a433061f, 0x565ac4ecfbfb13e2, 0x088de3cc511b2507,
		0xd49da2ed2c268c80, 0xc9f4b00374bade34, 0x7297a19e1d4e02df,
		0xf0806ead87a93a34, 0x3882a93ddf1144ba, 0xfdf02a5b3ba1bef0,
		0xe3357e2d2beb667d, 0x42afd23af5a4ff98, 0x1a1d6bba5a974bc2,
		0x511327fe57a38879, 0x03a8f85f6e770dbb, 0x8ffbf58ff99897b6,
		0xb77f242d15902337, 0xcbf29ce484222325, 0xe8668e4c1940fa62,
		0x0ab9e25d198a7ccb, 0x74aa976d6d276d8c, 0x498cf8921657086d,
		0xd99c29b9135b7438, 0xa0e1330427c8b4c0, 0x13f7f2abf2a69b26,
		0x603145e90092f43f, 0x78a3cba920545646, 0xcbf29ce484222325,
	},
	"fscqsim/bugs": {
		0x8f9a4a04a433061f, 0x565ac4ecfbfb13e2, 0x088de3cc511b2507,
		0xd49da2ed2c268c80, 0xc9f4b00374bade34, 0x4fa03acfb5f1eb1e,
		0x0d5d5182a5467c6f, 0x1077d74108db3132, 0xd48aad5fea2de8a8,
		0xd4e7abbe91697145, 0x42afd23af5a4ff98, 0x1452dd376b12b8fa,
		0x511327fe57a38879, 0xa6db840a23792713, 0x8ffbf58ff99897b6,
		0x98de391e77b213d7, 0xcbf29ce484222325, 0x2d3015149420aaaf,
		0x0ab9e25d198a7ccb, 0xe5ac7ab3c3f659fa, 0x498cf8921657086d,
		0xd99c29b9135b7438, 0xa0e1330427c8b4c0, 0x13f7f2abf2a69b26,
		0x603145e90092f43f, 0x78a3cba920545646, 0xcbf29ce484222325,
	},
	"diskfmt/fixed": {
		0xcaa6bd92451d9d45, 0x7badfabb0272f948, 0xcbf29ce484222325,
		0xabb8c3ba63e6cfaa, 0xcbf29ce484222325, 0x69cc8b3a66936abf,
		0xcbf29ce484222325, 0x9854f8ef0a8a60a5, 0xcbf29ce484222325,
		0x0bfbd6cc8a07b4ee, 0xcbf29ce484222325, 0xb33a5810319ad574,
		0xcbf29ce484222325, 0x8fa3a3fc2fe511d9, 0xcbf29ce484222325,
		0x4c9f6a10051b64f2, 0xcbf29ce484222325, 0xb6928651ef7fc6a0,
		0xcbf29ce484222325, 0xf7195b7e86cb6b91, 0xcbf29ce484222325,
		0x4955b067d66accb1, 0xcbf29ce484222325, 0x2ec888d1ffe529c6,
		0xcbf29ce484222325, 0xe247a87ad3ba6b4e, 0xcbf29ce484222325,
	},
	"diskfmt/bugs": {
		0xcaa6bd92451d9d45, 0x7badfabb0272f948, 0xcbf29ce484222325,
		0xabb8c3ba63e6cfaa, 0xcbf29ce484222325, 0x69cc8b3a66936abf,
		0xcbf29ce484222325, 0x9854f8ef0a8a60a5, 0xcbf29ce484222325,
		0x0bfbd6cc8a07b4ee, 0xcbf29ce484222325, 0xb33a5810319ad574,
		0xcbf29ce484222325, 0x8fa3a3fc2fe511d9, 0xcbf29ce484222325,
		0x4c9f6a10051b64f2, 0xcbf29ce484222325, 0xb6928651ef7fc6a0,
		0xcbf29ce484222325, 0xf7195b7e86cb6b91, 0xcbf29ce484222325,
		0x4955b067d66accb1, 0xcbf29ce484222325, 0x2ec888d1ffe529c6,
		0xcbf29ce484222325, 0xe247a87ad3ba6b4e, 0xcbf29ce484222325,
	},
}
