package ace

import (
	"fmt"

	"b3/internal/filesys"
	"b3/internal/fstree"
	"b3/internal/workload"
)

// Generator enumerates the bounded workload space.
type Generator struct {
	Bounds Bounds
	// prefix used in workload IDs.
	IDPrefix string

	// Shard and NumShards partition the enumeration into residue classes:
	// when NumShards > 1, only workloads whose 1-based sequence number
	// satisfies seq mod NumShards == Shard are visited. Generation order is
	// deterministic, so the partition is stable across runs and processes:
	// the classes 0..NumShards-1 are disjoint, their union is the full
	// space, and every workload keeps the sequence number (and "ace-<seq>"
	// ID) it has in the unsharded enumeration. Every phase-2 assignment is
	// still simulated once — dependency building decides how many sequence
	// numbers it owns — but workloads outside the class are stepped over
	// without being built, and the returned count stays the full-space
	// count.
	Shard     int
	NumShards int
}

// New returns a generator over the given bounds.
func New(b Bounds) *Generator { return &Generator{Bounds: b, IDPrefix: "ace"} }

// Generate streams every workload in the bounded space (restricted to the
// generator's shard residue class, if any) to fn in a deterministic order.
// fn returning false stops generation early. The returned count is the
// number of workloads enumerated, shard members or not.
func (g *Generator) Generate(fn func(w *workload.Workload) bool) (int64, error) {
	return g.Walk(func(_ int64, build func() *workload.Workload) bool { return fn(build()) })
}

// GenerateSeq is Generate with each workload's global 1-based sequence
// number passed alongside. The sequence number spans the full enumeration
// regardless of sharding — it is the stable workload identity that corpus
// records are keyed by and that the shard partition is computed from.
func (g *Generator) GenerateSeq(fn func(seq int64, w *workload.Workload) bool) (int64, error) {
	return g.Walk(func(seq int64, build func() *workload.Workload) bool { return fn(seq, build()) })
}

// Count walks the space without building any workload.
func (g *Generator) Count() (int64, error) {
	return g.Walk(func(int64, func() *workload.Workload) bool { return true })
}

// Walk visits the sequence number of every workload in the bounded space
// (restricted to the shard residue class, if any) in generation order. build
// materialises and IDs the workload being visited; it is valid only until
// visit returns, and a sequence number whose build is never called costs no
// allocation. visit returning false stops the walk; the returned count is
// then the sequence number it stopped on, otherwise the size of the space.
//
// All persistence variants of one phase-2 assignment share one model
// simulation (plan): a persistence op neither changes the model nor needs
// dependency ops, so the assignment's workloads are the Cartesian product of
// its slots' valid persistence choices, numbered consecutively with slot 0
// most significant.
func (g *Generator) Walk(visit func(seq int64, build func() *workload.Workload) bool) (int64, error) {
	if g.Bounds.SeqLen < 1 {
		return 0, fmt.Errorf("ace: sequence length must be >= 1")
	}
	if g.NumShards > 1 && (g.Shard < 0 || g.Shard >= g.NumShards) {
		return 0, fmt.Errorf("ace: shard %d outside residue range 0..%d", g.Shard, g.NumShards-1)
	}
	if g.NumShards < 0 {
		return 0, fmt.Errorf("ace: negative shard count %d", g.NumShards)
	}
	wk := &walk{
		idPrefix: g.IDPrefix,
		bounds:   g.Bounds,
		dirs:     make(map[string]bool, len(g.Bounds.Dirs)),
		choices:  make(map[workload.OpKind][]choice, len(g.Bounds.Ops)),
		skeleton: make([]workload.OpKind, g.Bounds.SeqLen),
		assigned: make([]choice, g.Bounds.SeqLen),
		slots:    make([]slot, g.Bounds.SeqLen),
		stride:   1,
		visit:    visit,
	}
	if g.NumShards > 1 {
		wk.stride, wk.shard = int64(g.NumShards), int64(g.Shard)
	}
	wk.build = wk.materialise // bound once: evaluating a method value allocates
	for _, d := range g.Bounds.Dirs {
		wk.dirs[d] = true
	}
	// Phase 2 choices per op kind and their phase-3 options, computed once.
	for _, kind := range g.Bounds.Ops {
		cs := g.Bounds.paramChoices(kind)
		if len(cs) == 0 {
			return 0, fmt.Errorf("ace: no parameter choices for op %v", kind)
		}
		for i := range cs {
			cs[i].persist = g.Bounds.persistChoices(cs[i], false)
			cs[i].persistFinal = g.Bounds.persistChoices(cs[i], true)
		}
		wk.choices[kind] = cs
	}
	wk.phase1(0)
	return wk.emitted, wk.err
}

// slot is one position of a planned assignment.
type slot struct {
	deps    []workload.Op // dependency ops the core op needs at this point
	core    workload.Op
	persist []persistChoice // the phase-3 choices valid after the core op
}

// walk is the state of one enumeration. None of it lives on the Generator,
// so concurrent walks over one generator are independent.
type walk struct {
	idPrefix string
	bounds   Bounds
	dirs     map[string]bool // Bounds.Dirs as a set, for dependency building
	choices  map[workload.OpKind][]choice
	skeleton []workload.OpKind
	assigned []choice
	// slots is the current assignment's plan, size the number of workloads
	// it yields, member the index among them of the one being visited, and
	// emitted the last sequence number reached; build reads all four.
	slots                 []slot
	size, member, emitted int64
	// Only sequence numbers congruent to shard modulo stride are visited.
	stride, shard int64
	visit         func(int64, func() *workload.Workload) bool
	build         func() *workload.Workload
	stop          bool
	err           error
}

// phase1 is the skeleton odometer over the op vocabulary.
func (wk *walk) phase1(pos int) {
	if pos == len(wk.skeleton) {
		wk.phase2(0)
		return
	}
	for _, kind := range wk.bounds.Ops {
		wk.skeleton[pos] = kind
		if wk.phase1(pos + 1); wk.stop {
			return
		}
	}
}

// phase2 enumerates parameter assignments for the current skeleton.
func (wk *walk) phase2(pos int) {
	if pos == len(wk.assigned) {
		wk.block()
		return
	}
	for _, c := range wk.choices[wk.skeleton[pos]] {
		wk.assigned[pos] = c
		if wk.phase2(pos + 1); wk.stop {
			return
		}
	}
}

// plan simulates the current assignment once (phase 4): each core operation
// is preceded by the dependency operations it needs at that point in the
// sequence (a file may have to be re-created if an earlier core op renamed
// its directory away), and each slot keeps the phase-3 choices that are
// valid there. It returns the number of workloads the assignment yields —
// zero when the combination is invalid (e.g. creat of a file another op
// requires to pre-exist) or some slot has no valid persistence point.
func (wk *walk) plan() int64 {
	d := &depBuilder{model: fstree.New(), dirs: wk.dirs}
	size := int64(1)
	for i, c := range wk.assigned {
		s := &wk.slots[i]
		d.deps = s.deps[:0]
		if !d.prepare(c.op) || !d.apply(c.op) {
			return 0
		}
		s.deps, s.core, s.persist = d.deps, c.op, s.persist[:0]
		d.deps = nil
		options := c.persist
		if i == len(wk.assigned)-1 {
			options = c.persistFinal
		}
		for _, pc := range options {
			if !pc.none && !d.prepare(pc.op) {
				continue
			}
			if len(d.deps) != 0 { // the product numbering rests on persistence ops being inert
				wk.err, wk.stop = fmt.Errorf("ace: persistence op %s needs dependency ops %v", pc.op, d.deps), true
				return 0
			}
			s.persist = append(s.persist, pc)
		}
		size *= int64(len(s.persist))
	}
	return size
}

// block plans the current assignment and visits the shard members among the
// consecutive sequence numbers it owns.
func (wk *walk) block() {
	wk.size = wk.plan()
	first := wk.emitted + 1
	// Smallest offset whose sequence number lies in the residue class.
	skip := ((wk.shard-first)%wk.stride + wk.stride) % wk.stride
	for wk.member = skip; wk.member < wk.size; wk.member += wk.stride {
		wk.emitted = first + wk.member
		if !wk.visit(wk.emitted, wk.build) {
			wk.stop = true
			return
		}
	}
	wk.emitted = first + wk.size - 1
}

// materialise builds the workload being visited: member, read as a
// mixed-radix number over the slots' persistence lists (slot 0 most
// significant), picks each slot's persistence point.
func (wk *walk) materialise() *workload.Workload {
	n := 0
	for _, s := range wk.slots {
		n += len(s.deps) + 2
	}
	w := &workload.Workload{
		ID:      fmt.Sprintf("%s-%d", wk.idPrefix, wk.emitted),
		Ops:     make([]workload.Op, 0, n),
		CoreOps: make([]int, 0, len(wk.slots)),
	}
	rest, weight := wk.member, wk.size // weight: members per choice of this slot's digit
	for _, s := range wk.slots {
		weight /= int64(len(s.persist))
		w.Ops = append(w.Ops, s.deps...)
		w.CoreOps = append(w.CoreOps, len(w.Ops))
		w.Ops = append(w.Ops, s.core)
		if pc := s.persist[rest/weight]; !pc.none {
			w.Ops = append(w.Ops, pc.op)
		}
		rest %= weight
	}
	return w
}

// depBuilder satisfies phase-4 dependencies against a simulated model.
type depBuilder struct {
	model *fstree.Tree
	deps  []workload.Op
	// dirs marks the paths the generator's bounds declare as directories,
	// so a rename of a not-yet-existing path is classified by the bounds it
	// was drawn from instead of a hardcoded name list.
	dirs map[string]bool
}

// ensureDirChain creates missing ancestor directories of path.
func (d *depBuilder) ensureDirChain(path string) bool {
	comps := fstree.SplitPath(path)
	cur := ""
	for _, comp := range comps[:max(0, len(comps)-1)] {
		cur += "/" + comp
		n, err := d.model.Lookup(cur)
		if err == nil {
			if n.Kind != filesys.KindDir {
				return false
			}
			continue
		}
		if _, err := d.model.Mkdir(cur); err != nil {
			return false
		}
		d.deps = append(d.deps, workload.Op{Kind: workload.OpMkdir, Path: cur})
	}
	return true
}

// ensureFile creates path as a regular file; withData also fills it to
// DepFileSize so overwrite semantics have something to overwrite.
func (d *depBuilder) ensureFile(path string, withData bool) bool {
	if !d.ensureDirChain(path) {
		return false
	}
	n, err := d.model.Lookup(path)
	if err != nil {
		if _, cerr := d.model.Create(path); cerr != nil {
			return false
		}
		d.deps = append(d.deps, workload.Op{Kind: workload.OpCreat, Path: path})
		n, _ = d.model.Lookup(path)
	}
	if n == nil || n.Kind == filesys.KindDir {
		return false
	}
	if withData && n.Kind == filesys.KindRegular && n.Size() < DepFileSize {
		if _, err := d.model.Write(path, 0, fstree.Zeros(DepFileSize)); err != nil {
			return false
		}
		d.deps = append(d.deps, workload.Op{Kind: workload.OpWrite, Path: path, Off: 0, Len: DepFileSize})
	}
	return true
}

func (d *depBuilder) ensureDir(path string) bool {
	if !d.ensureDirChain(path + "/x") {
		return false
	}
	n, err := d.model.Lookup(path)
	if err == nil {
		return n.Kind == filesys.KindDir
	}
	if _, err := d.model.Mkdir(path); err != nil {
		return false
	}
	d.deps = append(d.deps, workload.Op{Kind: workload.OpMkdir, Path: path})
	return true
}

func (d *depBuilder) ensureXattr(path, name string) bool {
	n, err := d.model.Lookup(path)
	if err != nil {
		return false
	}
	if _, ok := n.Xattrs[name]; ok {
		return true
	}
	if _, err := d.model.SetXattr(path, name, []byte("dep")); err != nil {
		return false
	}
	d.deps = append(d.deps, workload.Op{Kind: workload.OpSetXattr, Path: path, Name: name, Value: "dep"})
	return true
}

// prepare satisfies the prerequisites of op, returning false when the op
// cannot be made valid (the workload is discarded).
func (d *depBuilder) prepare(op workload.Op) bool {
	switch op.Kind {
	case workload.OpNone:
		return false // sentinel, never a valid core op
	case workload.OpCreat, workload.OpMkfifo, workload.OpSymlink:
		target := op.Path
		if op.Kind == workload.OpSymlink {
			target = op.Path2
		}
		if !d.ensureDirChain(target) {
			return false
		}
		return !d.model.Exists(target)
	case workload.OpMkdir:
		if !d.ensureDirChain(op.Path) {
			return false
		}
		return !d.model.Exists(op.Path)
	case workload.OpWrite, workload.OpDWrite, workload.OpMWrite:
		// Overwrite semantics need existing data; appends need the file.
		return d.ensureFile(op.Path, op.Off < DepFileSize || op.Off == DepFileSize)
	case workload.OpFalloc:
		return d.ensureFile(op.Path, true)
	case workload.OpTruncate:
		return d.ensureFile(op.Path, true)
	case workload.OpLink:
		if !d.ensureFile(op.Path, false) || !d.ensureDirChain(op.Path2) {
			return false
		}
		if n, err := d.model.Lookup(op.Path); err != nil || n.Kind == filesys.KindDir {
			return false
		}
		return !d.model.Exists(op.Path2)
	case workload.OpRename:
		// Directory-ness of the source decides the dependency shape. The
		// model wins when the path already exists (an earlier op may have
		// created it either way); otherwise the generator's bounds say which
		// argument set the path came from.
		isDir := d.dirs[op.Path]
		if n, err := d.model.Lookup(op.Path); err == nil {
			isDir = n.Kind == filesys.KindDir
		}
		if isDir {
			if !d.ensureDir(op.Path) {
				return false
			}
		} else if !d.ensureFile(op.Path, false) {
			return false
		}
		if !d.ensureDirChain(op.Path2) {
			return false
		}
		// Replacement targets are allowed when compatible; the model
		// validation pass rejects incompatible ones.
		return true
	case workload.OpUnlink:
		if !d.ensureFile(op.Path, false) {
			return false
		}
		n, err := d.model.Lookup(op.Path)
		return err == nil && n.Kind != filesys.KindDir
	case workload.OpRemove:
		if d.model.Exists(op.Path) {
			return true
		}
		return d.ensureFile(op.Path, false)
	case workload.OpRmdir:
		if !d.ensureDir(op.Path) {
			return false
		}
		n, err := d.model.Lookup(op.Path)
		return err == nil && len(n.Children) == 0
	case workload.OpSetXattr:
		return d.ensureFile(op.Path, false)
	case workload.OpRemoveXattr:
		return d.ensureFile(op.Path, false) && d.ensureXattr(op.Path, op.Name)
	case workload.OpFsync, workload.OpFdatasync:
		return d.model.Exists(op.Path)
	case workload.OpMSync:
		n, err := d.model.Lookup(op.Path)
		return err == nil && n.Kind == filesys.KindRegular
	case workload.OpSync:
		return true
	}
	return false
}

// apply executes op on the model (persistence ops are no-ops there).
func (d *depBuilder) apply(op workload.Op) bool {
	var err error
	switch op.Kind {
	case workload.OpNone:
		return false // sentinel, never a valid core op
	case workload.OpCreat:
		_, err = d.model.Create(op.Path)
	case workload.OpMkdir:
		_, err = d.model.Mkdir(op.Path)
	case workload.OpSymlink:
		_, err = d.model.Symlink(op.Path, op.Path2)
	case workload.OpMkfifo:
		_, err = d.model.Mkfifo(op.Path)
	case workload.OpLink:
		_, err = d.model.Link(op.Path, op.Path2)
	case workload.OpUnlink:
		_, _, err = d.model.Unlink(op.Path)
	case workload.OpRmdir:
		_, err = d.model.Rmdir(op.Path)
	case workload.OpRemove:
		if n, lerr := d.model.Lookup(op.Path); lerr == nil && n.Kind == filesys.KindDir {
			_, err = d.model.Rmdir(op.Path)
		} else {
			_, _, err = d.model.Unlink(op.Path)
		}
	case workload.OpRename:
		_, _, err = d.model.Rename(op.Path, op.Path2)
	case workload.OpTruncate:
		_, err = d.model.Truncate(op.Path, op.Off)
	case workload.OpWrite, workload.OpDWrite, workload.OpMWrite:
		// The model tracks only sizes and allocation: zeros stand in for
		// the written bytes.
		_, err = d.model.Write(op.Path, op.Off, fstree.Zeros(op.Len))
	case workload.OpFalloc:
		_, err = d.model.Falloc(op.Path, op.Mode, op.Off, op.Len)
	case workload.OpSetXattr:
		_, err = d.model.SetXattr(op.Path, op.Name, []byte(op.Value))
	case workload.OpRemoveXattr:
		_, err = d.model.RemoveXattr(op.Path, op.Name)
	case workload.OpFsync, workload.OpFdatasync, workload.OpMSync, workload.OpSync:
		return true
	}
	return err == nil
}
