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
	{"write /foo (lost)", false, func(m filesys.MountedFS) error { return m.Write("/foo", 0, pattern(100, 4)) }},
	{"unmount", true, func(m filesys.MountedFS) error { return m.Unmount() }},
}

// runGolden executes goldenScript on a fresh device and returns, per
// persistence step, the device digest and the digest of what Mount's
// recovery wrote to a copy-on-write fork of that crash state (0 when Mount
// fails, as it legitimately may with the unmountable-bug toggles on).
func runGolden(t *testing.T, fs filesys.FileSystem) []uint64 {
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
		if !step.persist {
			continue
		}
		out = append(out, deviceDigest(t, dev))
		crash := blockdev.NewSnapshot(dev)
		var recovered uint64
		if _, err := fs.Mount(crash); err == nil {
			recovered = deviceDigest(t, crash)
		}
		out = append(out, recovered)
		crash.Release()
	}
	return out
}

// TestGoldenDeviceBytes pins the exact bytes every backend puts on the
// device: digests were recorded from the commit before internal/fs moved
// onto the shared diskfmt base, so any drift in an image, superblock, log
// record or recovery checkpoint — and with it every campaign fingerprint,
// state count and prune ratio — fails here first.
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
				got := runGolden(t, fs)
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

// goldenDigests: mkfs, then (device, recovered fork) per persistence step.
var goldenDigests = map[string][]uint64{
	"logfs/fixed": {
		0xd9ea19c99a88c55a, 0xa032bc8951e1cc95, 0xec78b25e33f26928,
		0xd3a22ea6d0245c57, 0xf12ea1dfe2b341c3, 0xb95bae6dce3c2f0c,
		0xb69a5a4d1b5106cc, 0xed33102043b821bf, 0x46be58b42c2a19b4,
		0x463c35ae394cc55f, 0x8bb2d1ac8a64dff1, 0xd370d26b0bbaece9,
		0x4b6e3c8a2baedf69, 0x94dc2c731835fab5, 0x717279df28e00b35,
		0xadcb41ab43153fb6, 0xcbf29ce484222325, 0x22d05255cb025848,
		0x2bf16342485b9655, 0x0c5f3fe71a26d049, 0xcbf29ce484222325,
	},
	"logfs/bugs": {
		0xd9ea19c99a88c55a, 0xa032bc8951e1cc95, 0x8923cae114fc9caf,
		0xbf5a520aa282e5ea, 0xd673aaa080233fb4, 0xbf5a520aa282e5ea,
		0xd673aaa080233fb4, 0xbf5a520aa282e5ea, 0xd673aaa080233fb4,
		0xbf5a520aa282e5ea, 0xd673aaa080233fb4, 0xbf5a520aa282e5ea,
		0xd673aaa080233fb4, 0xbf5a520aa282e5ea, 0xd673aaa080233fb4,
		0x9a2dbf47b4cd9871, 0xcbf29ce484222325, 0x3d41c419d6b5718f,
		0xb74e0b9ce329dd0d, 0xef43f8d558365cb6, 0xcbf29ce484222325,
	},
	"journalfs/fixed": {
		0xa684abe2147867d1, 0xa3dabef362e5db20, 0x6a33025f740f1806,
		0x8b871c498047e905, 0xa089cbd9cea88a6f, 0x9e1c957538767a69,
		0x76f77b6f78ac019d, 0xa61eff8d602e4e96, 0xc2625ca3151aded2,
		0x5b9cc6d274008b53, 0x98108fefb304978c, 0xa3bb7f39287e71e7,
		0x711ab55769fad8ff, 0x2213eaf7126fc4fb, 0xcdfcf537e5a20b42,
		0x111c57426fd0a72f, 0xcbf29ce484222325, 0x33d47fe6c9ed1f16,
		0x175450868af45648, 0x6150bae0bfd5d08e, 0xcbf29ce484222325,
	},
	"journalfs/bugs": {
		0xa684abe2147867d1, 0xa3dabef362e5db20, 0x6a33025f740f1806,
		0x8b871c498047e905, 0xa089cbd9cea88a6f, 0x9e1c957538767a69,
		0x76f77b6f78ac019d, 0x9e1c957538767a69, 0x76f77b6f78ac019d,
		0x4ce18582e994d076, 0x98108fefb304978c, 0x4f1e3fa37359ef7f,
		0x711ab55769fad8ff, 0x308cdc9dee031c14, 0x711ab55769fad8ff,
		0x9ea3f8e9564f2e50, 0xcbf29ce484222325, 0x1365e9df08244de1,
		0x175450868af45648, 0x7e93405778abd549, 0xcbf29ce484222325,
	},
	"f2fsim/fixed": {
		0x4c9ef6cf41245186, 0xc1d4eba4fcf87ef4, 0x42bdad37ee7c218c,
		0xa29e898c93bd9622, 0xcbf29ce484222325, 0xee22d4e06de70cfd,
		0x4a60092d3b46ee0c, 0x5e035953dfb96f3b, 0x3b5db9d97e6df5a0,
		0xe1d679d58cf80e10, 0x260d2b8a25af8cf6, 0xcb0012ba0962e6dc,
		0x777b9019ef464fe2, 0xaf09036ec46fe42b, 0xbc322fa833fd64c3,
		0xc6b3f7f08b55ad5a, 0xcbf29ce484222325, 0xe644730981de0309,
		0x8e8a384e0684bcfd, 0x202e9309729368ca, 0xcbf29ce484222325,
	},
	"f2fsim/bugs": {
		0x4c9ef6cf41245186, 0xc1d4eba4fcf87ef4, 0x42bdad37ee7c218c,
		0xa29e898c93bd9622, 0xcbf29ce484222325, 0xee22d4e06de70cfd,
		0x4a60092d3b46ee0c, 0xee22d4e06de70cfd, 0x4a60092d3b46ee0c,
		0xceb0db7240203037, 0xedfecd5b4769afa3, 0xb43ff78a6c431ef8,
		0x777b9019ef464fe2, 0x0510258f89c0a7a8, 0xbc322fa833fd64c3,
		0xa14ecd31bb42c501, 0xcbf29ce484222325, 0xbe2a98a4eeec9a42,
		0x8e8a384e0684bcfd, 0x060fb519aaf95c11, 0xcbf29ce484222325,
	},
	"fscqsim/fixed": {
		0xf445198ed58578f6, 0x42cd542e8097b5a2, 0x1eba34a680968d63,
		0xcbd195dadb07dd7e, 0x624faab338014cb1, 0x0d6a717c320ae178,
		0x578c573e5f5f53d8, 0xcd8d74692cd21903, 0xa0a899045990c4a0,
		0xd67484a4c36df853, 0x55ffdf2328478aad, 0x701f6f2c05db4cfe,
		0x1b88bd26f5d903b6, 0x6c104750c43458cc, 0x9a6c54d61fed576b,
		0xc850336976b2bca7, 0xcbf29ce484222325, 0x3afeabe0a39efe7c,
		0xfad34ced48197471, 0xbc15848e98cd71e2, 0xcbf29ce484222325,
	},
	"fscqsim/bugs": {
		0xf445198ed58578f6, 0x42cd542e8097b5a2, 0x1eba34a680968d63,
		0xcbd195dadb07dd7e, 0x624faab338014cb1, 0xd24bc7bd86442bbe,
		0xcd7522c74d3141d8, 0x3d5144e08eb16501, 0x1707e4c38e5dfb4d,
		0x7219bb357adbef01, 0x55ffdf2328478aad, 0x53f4214726a8ecd4,
		0x1b88bd26f5d903b6, 0xf8598a0887701b0e, 0x9a6c54d61fed576b,
		0xa26b0a1c086dabb9, 0xcbf29ce484222325, 0x73e573b2219c88d2,
		0xfad34ced48197471, 0x494e41543113550c, 0xcbf29ce484222325,
	},
	"diskfmt/fixed": {
		0xd07480bef8d4d5f4, 0x59111914a2e15dda, 0xcbf29ce484222325,
		0x3ae9661eeb45b9ab, 0xcbf29ce484222325, 0xf5b697a3db8170fd,
		0xcbf29ce484222325, 0xc685b2227c180243, 0xcbf29ce484222325,
		0x1049273789c48656, 0xcbf29ce484222325, 0x598ad3ed3d2e1587,
		0xcbf29ce484222325, 0x60f65df46e10ea5f, 0xcbf29ce484222325,
		0x591739d9f44ff7eb, 0xcbf29ce484222325, 0x9719606912f4e648,
		0xcbf29ce484222325, 0x90094358eafbadd8, 0xcbf29ce484222325,
	},
	"diskfmt/bugs": {
		0xd07480bef8d4d5f4, 0x59111914a2e15dda, 0xcbf29ce484222325,
		0x3ae9661eeb45b9ab, 0xcbf29ce484222325, 0xf5b697a3db8170fd,
		0xcbf29ce484222325, 0xc685b2227c180243, 0xcbf29ce484222325,
		0x1049273789c48656, 0xcbf29ce484222325, 0x598ad3ed3d2e1587,
		0xcbf29ce484222325, 0x60f65df46e10ea5f, 0xcbf29ce484222325,
		0x591739d9f44ff7eb, 0xcbf29ce484222325, 0x9719606912f4e648,
		0xcbf29ce484222325, 0x90094358eafbadd8, 0xcbf29ce484222325,
	},
}
