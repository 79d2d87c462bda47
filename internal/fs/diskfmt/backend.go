package diskfmt

import (
	"sort"

	"b3/internal/blockdev"
	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/fstree"
)

// Options configures a backend instance.
type Options struct {
	// Version is the simulated kernel version; the zero value means
	// bugs.Latest (4.16).
	Version bugs.Version
	// BugOverride, when non-nil, is the exact set of active bug mechanisms
	// regardless of Version. An empty non-nil map yields a fully fixed
	// file system.
	BugOverride map[string]bool
}

// Backend is the header every backend's FileSystem type embeds: its name
// and the internal/bugs mechanisms active in it.
type Backend struct {
	name   string
	active map[string]bool
}

// NewBackend resolves opts for the named backend.
func NewBackend(name string, opts Options) Backend {
	active := opts.BugOverride
	if active == nil {
		ver := opts.Version
		if ver.IsZero() {
			ver = bugs.Latest
		}
		active = bugs.ActiveSet(name, ver)
	}
	return Backend{name: name, active: active}
}

// Name implements filesys.FileSystem.
func (b *Backend) Name() string { return b.name }

// Has reports whether bug mechanism id is active.
func (b *Backend) Has(id string) bool { return b.active[id] }

// ActiveBugs returns the sorted list of active bug mechanisms.
func (b *Backend) ActiveBugs() []string {
	out := make([]string, 0, len(b.active))
	for id, on := range b.active {
		if on {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// FsckByMount is Fsck for a backend whose mount-time recovery is total:
// there is nothing to repair beyond mounting and writing a clean checkpoint.
func FsckByMount(fs filesys.FileSystem, dev blockdev.Device) (bool, error) {
	m, err := fs.Mount(dev)
	if err != nil {
		return false, err
	}
	return true, m.Unmount()
}

// RecountLinks rebuilds Nlink from the namespace after recovery relinked
// entries (files: number of referencing dentries; dirs: 2 + subdirectories),
// counting entries once per path that reaches their directory, as
// fstree.Tree.Walk visits them. Only nodes whose count changes are edited,
// so a consistent tree copies no node.
func RecountLinks(t *fstree.Tree) {
	refs := map[uint64]int{}
	subdirs := map[uint64]int{}
	t.WalkNodes(func(n *fstree.Node) {
		if n.Kind != filesys.KindDir {
			return
		}
		for _, childIno := range n.Children {
			c := t.Get(childIno)
			if c == nil {
				continue
			}
			refs[childIno]++
			if c.Kind == filesys.KindDir {
				subdirs[n.Ino]++
			}
		}
	})
	recount := func(ino uint64) {
		n := t.Get(ino)
		want := refs[ino]
		if n.Kind == filesys.KindDir {
			want = 2 + subdirs[ino]
		}
		if n.Nlink != want {
			t.Edit(ino).Nlink = want
		}
	}
	recount(fstree.RootIno)
	for ino := range refs {
		recount(ino)
	}
}
