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
	// satisfies seq mod NumShards == Shard are streamed to fn. Generation
	// order is deterministic, so the partition is stable across runs and
	// processes: the classes 0..NumShards-1 are disjoint, their union is
	// the full space, and every workload keeps the sequence number (and
	// "ace-<seq>" ID) it has in the unsharded enumeration. The full space
	// is still enumerated — phase-4 dependency building decides which
	// candidates become workloads, so sequence numbering cannot be skipped
	// ahead — and the returned count stays the full-space count.
	Shard     int
	NumShards int

	// dirSet caches Bounds.Dirs as a set for phase-4 dependency building;
	// rebuilt at the start of every Generate so Bounds edits take effect.
	dirSet map[string]bool
}

// New returns a generator over the given bounds.
func New(b Bounds) *Generator { return &Generator{Bounds: b, IDPrefix: "ace"} }

// Generate streams every workload in the bounded space (restricted to the
// generator's shard residue class, if any) to fn in a deterministic order.
// fn returning false stops generation early. The returned count is the
// number of workloads enumerated, shard members or not.
func (g *Generator) Generate(fn func(w *workload.Workload) bool) (int64, error) {
	return g.GenerateSeq(func(_ int64, w *workload.Workload) bool { return fn(w) })
}

// GenerateSeq is Generate with each workload's global 1-based sequence
// number passed alongside. The sequence number spans the full enumeration
// regardless of sharding — it is the stable workload identity that corpus
// records are keyed by and that the shard partition is computed from.
func (g *Generator) GenerateSeq(fn func(seq int64, w *workload.Workload) bool) (int64, error) {
	if g.Bounds.SeqLen < 1 {
		return 0, fmt.Errorf("ace: sequence length must be >= 1")
	}
	if g.NumShards > 1 && (g.Shard < 0 || g.Shard >= g.NumShards) {
		return 0, fmt.Errorf("ace: shard %d outside residue range 0..%d", g.Shard, g.NumShards-1)
	}
	if g.NumShards < 0 {
		return 0, fmt.Errorf("ace: negative shard count %d", g.NumShards)
	}
	g.dirSet = make(map[string]bool, len(g.Bounds.Dirs))
	for _, d := range g.Bounds.Dirs {
		g.dirSet[d] = true
	}
	// Phase 2 choices per op kind, computed once.
	choicesByKind := make(map[workload.OpKind][]choice, len(g.Bounds.Ops))
	for _, kind := range g.Bounds.Ops {
		cs := g.Bounds.paramChoices(kind)
		if len(cs) == 0 {
			return 0, fmt.Errorf("ace: no parameter choices for op %v", kind)
		}
		choicesByKind[kind] = cs
	}

	var emitted int64
	stop := false

	// Phase 1: skeleton odometer over the op vocabulary.
	skeleton := make([]workload.OpKind, g.Bounds.SeqLen)
	var phase1 func(pos int)
	phase1 = func(pos int) {
		if stop {
			return
		}
		if pos == len(skeleton) {
			g.phase2(skeleton, choicesByKind, &emitted, &stop, fn)
			return
		}
		for _, kind := range g.Bounds.Ops {
			skeleton[pos] = kind
			phase1(pos + 1)
			if stop {
				return
			}
		}
	}
	phase1(0)
	return emitted, nil
}

// phase2 enumerates parameter assignments for one skeleton.
func (g *Generator) phase2(skeleton []workload.OpKind,
	choicesByKind map[workload.OpKind][]choice,
	emitted *int64, stop *bool, fn func(int64, *workload.Workload) bool) {

	assigned := make([]choice, len(skeleton))
	var rec func(pos int)
	rec = func(pos int) {
		if *stop {
			return
		}
		if pos == len(skeleton) {
			g.phase3(assigned, emitted, stop, fn)
			return
		}
		for _, c := range choicesByKind[skeleton[pos]] {
			assigned[pos] = c
			rec(pos + 1)
			if *stop {
				return
			}
		}
	}
	rec(0)
}

// phase3 enumerates persistence-point assignments.
func (g *Generator) phase3(assigned []choice,
	emitted *int64, stop *bool, fn func(int64, *workload.Workload) bool) {

	persist := make([]persistChoice, len(assigned))
	var rec func(pos int)
	rec = func(pos int) {
		if *stop {
			return
		}
		if pos == len(assigned) {
			w := g.phase4(assigned, persist)
			if w == nil {
				return // dependencies unsatisfiable: not a valid workload
			}
			*emitted++
			// Out-of-shard workloads are counted but not streamed: the
			// sequence number is the cross-shard workload identity.
			if g.NumShards > 1 && *emitted%int64(g.NumShards) != int64(g.Shard) {
				return
			}
			w.ID = fmt.Sprintf("%s-%d", g.IDPrefix, *emitted)
			if !fn(*emitted, w) {
				*stop = true
			}
			return
		}
		final := pos == len(assigned)-1
		for _, pc := range g.Bounds.persistChoices(assigned[pos], final) {
			persist[pos] = pc
			rec(pos + 1)
			if *stop {
				return
			}
		}
	}
	rec(0)
}

// Count runs generation without retaining workloads.
func (g *Generator) Count() (int64, error) {
	return g.Generate(func(*workload.Workload) bool { return true })
}

// zeroPage backs zeros; it is never written.
var zeroPage [DepFileSize]byte

// zeros returns n zero bytes for a phase-4 model write — the model only
// tracks sizes and allocation, and fstree.Tree.Write copies its argument,
// so every write can pass the same read-only page. Lengths above
// DepFileSize are allocated.
func zeros(n int64) []byte {
	if n > int64(len(zeroPage)) {
		return make([]byte, n)
	}
	return zeroPage[:n]
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
		if _, err := d.model.Write(path, 0, zeros(DepFileSize)); err != nil {
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
		_, err = d.model.Write(op.Path, op.Off, zeros(op.Len))
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

// phase4 builds the final workload: each core operation is preceded by the
// dependency operations it needs at that point in the sequence (a file may
// have to be re-created if an earlier core op renamed its directory away).
// It returns nil when the combination is invalid (e.g. creat of a file
// another op requires to pre-exist).
func (g *Generator) phase4(assigned []choice, persist []persistChoice) *workload.Workload {
	d := &depBuilder{model: fstree.New(), dirs: g.dirSet}
	w := &workload.Workload{}

	for i, c := range assigned {
		d.deps = d.deps[:0]
		if !d.prepare(c.op) {
			return nil
		}
		w.Ops = append(w.Ops, d.deps...)
		if !d.apply(c.op) {
			return nil
		}
		w.CoreOps = append(w.CoreOps, len(w.Ops))
		w.Ops = append(w.Ops, c.op)
		if !persist[i].none {
			pop := persist[i].op
			d.deps = d.deps[:0]
			if !d.prepare(pop) {
				return nil
			}
			w.Ops = append(w.Ops, d.deps...)
			w.Ops = append(w.Ops, pop)
		}
	}
	return w
}
