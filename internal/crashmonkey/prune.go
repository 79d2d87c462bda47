package crashmonkey

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"b3/internal/blockdev"
	"b3/internal/filesys"
	"b3/internal/fstree"
	"b3/internal/kvoracle"
)

// Representative crash-state pruning (after Gu et al., "Scalable and
// Accurate Application-Level Crash-Consistency Testing via Representative
// Testing"): during a campaign most crash states are equivalent to one the
// checker has already judged, because workloads share op prefixes (every
// seq-2 workload beginning "creat /foo; fsync /foo" reconstructs the same
// checkpoint-1 state) and because distinct disk images often recover to the
// same logical tree. Checking is a deterministic function of
//
//	(crash-state contents, recovery, oracle expectation, check options)
//
// so a verdict may be reused whenever that whole tuple repeats. The cache
// therefore keys on two fingerprints: the crash state (disk tier: dirty
// block contents; tree tier: the recovered logical tree) and the oracle
// (Expectation.Fingerprint, which folds in the persistence guarantees and
// the shadow model). A disk-tier hit skips recovery and all checks; a
// tree-tier hit skips the read and write checks. The tree tier additionally
// assumes post-recovery behaviour is a function of the recovered logical
// state, which holds for the simulated backends and is verified end-to-end
// by the no-prune cross-check tests.
//
// A PruneCache must only be shared between Monkeys driving the same file
// system instance configuration: the fingerprints do not capture which bug
// mechanisms are live.

// stateKey identifies one (crash state, oracle) pair.
type stateKey struct {
	state  uint64
	oracle uint64
}

// cachedVerdict is the reusable outcome of one fully checked crash state.
type cachedVerdict struct {
	mountable    bool
	fsckRun      bool
	fsckRepaired bool
	// class is the application oracle's class, present only when classed:
	// kvOracle's verdict on a state that mounted or was repaired. Every
	// other verdict has none. Both sit beside the bools, where they cost no
	// space.
	classed  bool
	class    kvoracle.Class
	findings []Finding
}

// PruneStats reports cache effectiveness counters.
type PruneStats struct {
	// DiskHits counts states skipped entirely: the state's one disk-tier
	// lookup found its (content, oracle) fingerprint already judged, so
	// neither recovery nor any check ran.
	DiskHits int64
	// TreeHits counts states whose recovery ran but whose oracle checks
	// were skipped (identical recovered tree).
	TreeHits int64
	// Misses counts states that were fully checked.
	Misses int64
	// DiskStates and TreeStates are the distinct states currently cached
	// per tier (bounded by Cap).
	DiskStates int64
	TreeStates int64
	// DiskEvictions and TreeEvictions count entries dropped to stay under
	// Cap. An evicted state that recurs is simply re-checked, so eviction
	// costs throughput, never correctness.
	DiskEvictions int64
	TreeEvictions int64
	// Cap is the per-tier entry bound the cache was built with.
	Cap int
}

// Skipped returns the total number of oracle checks avoided.
func (s PruneStats) Skipped() int64 { return s.DiskHits + s.TreeHits }

// Evictions returns the total entries dropped across both tiers.
func (s PruneStats) Evictions() int64 { return s.DiskEvictions + s.TreeEvictions }

// DefaultPruneCap bounds each cache tier. It is sized from the seq-2
// working set with headroom: a full seq-2 sweep caches tens of thousands of
// distinct (state, oracle) pairs, so at this cap seq-1/seq-2 campaigns see
// no evictions while seq-3 sweeps run at steady memory instead of growing
// with every distinct crash state.
const DefaultPruneCap = 1 << 17

// lruTier is one bounded LRU map from stateKey to a cached value. Not
// concurrency-safe; PruneCache serializes access.
type lruTier[V any] struct {
	cap     int
	ll      *list.List // front = most recently used; holds *lruEntry[V]
	entries map[stateKey]*list.Element
}

type lruEntry[V any] struct {
	key stateKey
	val V
}

func newLRUTier[V any](cap int) *lruTier[V] {
	return &lruTier[V]{cap: cap, ll: list.New(), entries: make(map[stateKey]*list.Element)}
}

func (t *lruTier[V]) get(k stateKey) (V, bool) {
	if el, ok := t.entries[k]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts k as most recently used (first writer wins, matching the old
// map semantics) and reports how many entries were evicted to stay in cap.
func (t *lruTier[V]) add(k stateKey, v V) int {
	if el, ok := t.entries[k]; ok {
		t.ll.MoveToFront(el)
		return 0
	}
	t.entries[k] = t.ll.PushFront(&lruEntry[V]{key: k, val: v})
	evicted := 0
	for t.cap > 0 && t.ll.Len() > t.cap {
		back := t.ll.Back()
		t.ll.Remove(back)
		delete(t.entries, back.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}

func (t *lruTier[V]) len() int { return t.ll.Len() }

// PruneCache is a concurrency-safe verdict cache for representative
// crash-state pruning. The zero value is not usable; use NewPruneCache or
// NewPruneCacheCap. Both tiers are bounded LRUs: memory stays constant over
// arbitrarily long campaigns, and an evicted (state, oracle) pair that
// recurs is re-checked — eviction is always verdict-preserving. Entries
// hold only keys and findings (nil for clean states), so even the default
// cap costs a few tens of MB at worst.
type PruneCache struct {
	mu   sync.Mutex
	disk *lruTier[*cachedVerdict]
	tree *lruTier[[]Finding]

	diskHits      atomic.Int64
	treeHits      atomic.Int64
	misses        atomic.Int64
	diskEvictions atomic.Int64
	treeEvictions atomic.Int64
	cap           int
}

// NewPruneCache returns an empty cache bounded at DefaultPruneCap entries
// per tier.
func NewPruneCache() *PruneCache { return NewPruneCacheCap(DefaultPruneCap) }

// NewPruneCacheCap returns an empty cache holding at most cap entries per
// tier (cap <= 0 means unbounded — the PR 1 behaviour).
func NewPruneCacheCap(cap int) *PruneCache {
	if cap < 0 {
		cap = 0
	}
	return &PruneCache{
		disk: newLRUTier[*cachedVerdict](cap),
		tree: newLRUTier[[]Finding](cap),
		cap:  cap,
	}
}

// Cap returns the per-tier entry bound (0 = unbounded).
func (c *PruneCache) Cap() int { return c.cap }

// Stats snapshots the cache counters.
func (c *PruneCache) Stats() PruneStats {
	c.mu.Lock()
	diskStates, treeStates := c.disk.len(), c.tree.len()
	c.mu.Unlock()
	return PruneStats{
		DiskHits:      c.diskHits.Load(),
		TreeHits:      c.treeHits.Load(),
		Misses:        c.misses.Load(),
		DiskStates:    int64(diskStates),
		TreeStates:    int64(treeStates),
		DiskEvictions: c.diskEvictions.Load(),
		TreeEvictions: c.treeEvictions.Load(),
		Cap:           c.cap,
	}
}

// lookupDisk looks k up in the disk tier, once per crash state. The
// incremental engine asks with the predicted fingerprint before it builds
// the state (the pruned blockdev enumerators' Seen hook, the cursor's
// fingerprint), so a hit is never forked, replayed or mounted; the scratch
// engine asks with the overlay scan after the build.
func (c *PruneCache) lookupDisk(k stateKey) (*cachedVerdict, bool) {
	c.mu.Lock()
	v, ok := c.disk.get(k)
	c.mu.Unlock()
	if ok {
		c.diskHits.Add(1)
	}
	return v, ok
}

func (c *PruneCache) lookupTree(k stateKey) ([]Finding, bool) {
	c.mu.Lock()
	fs, ok := c.tree.get(k)
	c.mu.Unlock()
	if ok {
		c.treeHits.Add(1)
	}
	return fs, ok
}

func (c *PruneCache) storeDisk(k stateKey, v *cachedVerdict) {
	c.mu.Lock()
	evicted := c.disk.add(k, v)
	c.mu.Unlock()
	if evicted > 0 {
		c.diskEvictions.Add(int64(evicted))
	}
}

func (c *PruneCache) storeTree(k stateKey, findings []Finding) {
	c.mu.Lock()
	evicted := c.tree.add(k, findings)
	c.mu.Unlock()
	if evicted > 0 {
		c.treeEvictions.Add(int64(evicted))
	}
}

func cloneFindings(fs []Finding) []Finding {
	if len(fs) == 0 {
		return nil
	}
	return append([]Finding(nil), fs...)
}

// ---- fingerprints -----------------------------------------------------------

// hasher accumulates structured data into an order-sensitive FNV-1a hash.
type hasher struct{ h uint64 }

func newHasher() *hasher { return &hasher{h: blockdev.FNVOffset} }

func (h *hasher) bytes(b []byte) {
	h.h = blockdev.HashBytes(h.h, b)
}

// content hashes c as bytes hashes its bytes in one piece: every piece
// Pages yields but the last is a whole number of 8-byte words long.
func (h *hasher) content(c fstree.Content) {
	for p := range c.Pages() {
		h.bytes(p)
	}
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.h = (h.h ^ uint64(s[i])) * blockdev.FNVPrime
	}
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.h = (h.h ^ (v & 0xff)) * blockdev.FNVPrime
		v >>= 8
	}
}

func (h *hasher) i64(v int64) { h.u64(uint64(v)) }

func (h *hasher) boolean(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) fileState(st *fileState) {
	if st == nil {
		h.u64(0)
		return
	}
	h.u64(uint64(st.kind))
	h.i64(st.size)
	h.u64(uint64(st.data.Len()))
	h.content(st.data)
	h.i64(st.sectors)
	h.i64(int64(st.nlink))
	h.str(st.target)
	h.xattrs(st.xattrs)
}

func (h *hasher) xattrs(xa map[string][]byte) {
	keys := make([]string, 0, len(xa))
	for k := range xa {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.u64(uint64(len(keys)))
	for _, k := range keys {
		h.str(k)
		h.u64(uint64(len(xa[k])))
		h.bytes(xa[k])
	}
}

// Fingerprint returns a hash of everything the oracle checks can observe:
// the persistence guarantees, the shadow model (paths feed report text),
// and every file and dentry expectation. Two expectations with equal
// fingerprints demand the same state of a crash survivor and render
// identical findings. The value is computed once and cached.
func (e *Expectation) Fingerprint() uint64 {
	e.fpOnce.Do(func() { e.fp = e.fingerprint() })
	return e.fp
}

func (e *Expectation) fingerprint() uint64 {
	h := newHasher()
	h.u64(guaranteeBits(e.g))

	e.model.Walk(func(path string, n *fstree.Node) {
		h.str(path)
		h.u64(n.Ino)
		h.u64(uint64(n.Kind))
		h.i64(n.Size())
		h.i64(int64(n.Nlink))
		h.str(n.Target)
	})

	inos := make([]uint64, 0, len(e.files))
	for ino := range e.files {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	h.u64(uint64(len(inos)))
	for _, ino := range inos {
		fe := e.files[ino]
		h.u64(ino)
		h.u64(uint64(fe.level))
		h.boolean(fe.modified)
		h.boolean(fe.nsModified)
		h.i64(fe.minSize)
		h.fileState(fe.state)
		h.u64(uint64(len(fe.accepted)))
		for _, st := range fe.accepted {
			h.fileState(st)
		}
		h.u64(uint64(len(fe.ranges)))
		for _, r := range fe.ranges {
			h.i64(r.off)
			h.u64(uint64(r.data.Len()))
			h.content(r.data)
		}
	}

	h.u64(uint64(len(e.bindings)))
	for _, b := range e.bindings {
		h.u64(b.key.parent)
		h.str(b.key.name)
		h.u64(b.ino)
		h.u64(uint64(b.level))
		h.boolean(b.removed)
		h.boolean(b.absent)
		h.boolean(b.unlinkedLater)
		if b.movedTo != nil {
			h.u64(b.movedTo.parent)
			h.str(b.movedTo.name)
		} else {
			h.u64(0)
			h.str("")
		}
	}
	return h.h
}

func guaranteeBits(g filesys.Guarantees) uint64 {
	var bits uint64
	if g.FsyncFilePersistsAncestorRenames {
		bits |= 1
	}
	if g.FdatasyncPersistsDentry {
		bits |= 2
	}
	return bits
}

// pruneSalt distinguishes cache entries produced under different check
// configurations (write checks on/off, file-system name).
// The value is constant per Monkey and computed once.
func (mk *Monkey) pruneSalt() uint64 {
	mk.saltOnce.Do(func() {
		h := newHasher()
		h.str(mk.FS.Name())
		h.boolean(mk.SkipWriteChecks)
		mk.salt = h.h
	})
	return mk.salt
}

// hashIndex hashes a recovered file system's visible logical state from the
// content-carrying crash index: paths, kinds, sizes, link counts, allocated
// sectors, file contents, symlink targets, and extended attributes —
// everything the read and write checks can distinguish. The index is the
// only source; the mounted file system is never re-read. Inodes are hashed
// once with the full sorted set of their paths, so hard-link structure is
// captured.
func hashIndex(idx *crashIndex) (uint64, error) {
	h := newHasher()
	inos := make([]uint64, 0, len(idx.paths))
	for ino := range idx.paths {
		// buildIndex records an inode only by appending a path for it, so an
		// empty path list is a broken index; error instead of indexing into
		// it below.
		if len(idx.paths[ino]) == 0 {
			return 0, fmt.Errorf("crash index invariant broken: inode %d has no paths", ino)
		}
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool {
		return idx.paths[inos[i]][0] < idx.paths[inos[j]][0]
	})
	for _, ino := range inos {
		paths := idx.paths[ino] // pre-sorted by buildIndex
		h.u64(uint64(len(paths)))
		for _, p := range paths {
			h.str(p)
		}
		is, ok := idx.inodes[ino]
		if !ok {
			return 0, fmt.Errorf("crash index invariant broken: inode %d has no captured state", ino)
		}
		h.u64(uint64(is.stat.Kind))
		h.i64(is.stat.Size)
		h.i64(is.stat.Blocks)
		h.i64(int64(is.stat.Nlink))
		switch is.stat.Kind {
		case filesys.KindRegular:
			h.content(is.data)
		case filesys.KindSymlink:
			h.str(is.target)
		case filesys.KindDir, filesys.KindFifo:
			// No content bytes; the kind itself is already hashed above, so
			// a dir and a fifo with equal stats still fingerprint apart.
		}
		h.xattrs(is.xattrs)
	}
	return h.h, nil
}
