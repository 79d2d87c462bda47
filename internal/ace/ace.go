// Package ace implements the Automatic Crash Explorer (§5.2): exhaustive
// generation of workloads within user-chosen bounds, in four phases:
//
//	phase 1  select operations (the skeleton)
//	phase 2  select parameters, pruning symmetrical choices
//	phase 3  add persistence points (the last op always gets one)
//	phase 4  satisfy dependencies so the workload runs on a POSIX FS
//
// The default bounds follow Table 3: at most three core operations, two
// top-level files and two directories with two files each, coarse-grained
// write semantics (append; overwrite at start, middle, end), and a clean
// initial file system.
package ace

import (
	"fmt"
	"hash/fnv"

	"b3/internal/filesys"
	"b3/internal/fstree"
	"b3/internal/workload"
)

// WriteSem is a coarse write-semantics class (Table 3 "data operations").
type WriteSem struct {
	Name string
	Off  int64
	Len  int64
}

// DepFileSize is the size dependency writes fill files to; write semantics
// offsets are relative to it.
const DepFileSize = 16384

// DefaultWriteSems are the Table 3 write classes. Overwrites target the
// start, middle, and end of a DepFileSize file; append extends it. The
// middle range overlaps both the start and end ranges, reflecting the
// study's observation that overlapping writes expose data bugs.
var DefaultWriteSems = []WriteSem{
	{Name: "append", Off: DepFileSize, Len: 4096},
	{Name: "start", Off: 0, Len: 8192},
	{Name: "middle", Off: 4096, Len: 8192},
	{Name: "end", Off: 8192, Len: 8192},
}

// FallocVariant pairs a mode with a range class.
type FallocVariant struct {
	Mode filesys.FallocMode
	Off  int64
	Len  int64
}

// DefaultFallocVariants covers the flag combinations involved in the
// studied bugs (§6.2: "developers failed to systematically test all
// possible parameter options of the system call").
var DefaultFallocVariants = []FallocVariant{
	{Mode: filesys.FallocDefault, Off: DepFileSize, Len: 4096},
	{Mode: filesys.FallocKeepSize, Off: DepFileSize, Len: 4096},
	{Mode: filesys.FallocPunchHole, Off: 4096, Len: 8192},
	{Mode: filesys.FallocZeroRange, Off: 4096, Len: 8192},
	{Mode: filesys.FallocZeroRangeKeepSize, Off: DepFileSize, Len: 4096},
}

// Bounds is the user-specified exploration bound set (§4.2).
type Bounds struct {
	// SeqLen is the number of core operations (seq-1, seq-2, seq-3).
	SeqLen int
	// Ops is the core operation vocabulary for phase 1.
	Ops []workload.OpKind
	// Files and Dirs are the argument sets for phase 2.
	Files []string
	Dirs  []string
	// WriteSems and FallocVariants bound data-operation parameters.
	WriteSems      []WriteSem
	FallocVariants []FallocVariant
	// IncludeFdatasync adds fdatasync as a persistence choice after data
	// operations (needed to reach the fdatasync fast-path bugs).
	IncludeFdatasync bool
	// XattrNames bounds setxattr/removexattr.
	XattrNames []string
}

// DefaultFiles is the Table 3 file set: two top-level files plus two
// directories of two files each.
func DefaultFiles() []string {
	return []string{"/foo", "/bar", "/A/foo", "/A/bar", "/B/foo", "/B/bar"}
}

// DefaultDirs is the Table 3 directory set.
func DefaultDirs() []string { return []string{"/A", "/B"} }

// NestedFiles adds the depth-3 file set used by seq-3-nested.
func NestedFiles() []string {
	return []string{"/A/foo", "/A/bar", "/A/C/foo", "/A/C/bar"}
}

// NestedDirs is the seq-3-nested directory set.
func NestedDirs() []string { return []string{"/A", "/A/C"} }

// AllOps is the 14-operation vocabulary of Table 4 (seq-1 and seq-2).
func AllOps() []workload.OpKind {
	return []workload.OpKind{
		workload.OpCreat, workload.OpMkdir, workload.OpFalloc, workload.OpWrite,
		workload.OpMWrite, workload.OpLink, workload.OpDWrite, workload.OpUnlink,
		workload.OpRmdir, workload.OpSetXattr, workload.OpRemoveXattr,
		workload.OpRemove, workload.OpTruncate, workload.OpRename,
	}
}

// Default returns the Table 3 bounds for the given sequence length.
func Default(seqLen int) Bounds {
	return Bounds{
		SeqLen:           seqLen,
		Ops:              AllOps(),
		Files:            DefaultFiles(),
		Dirs:             DefaultDirs(),
		WriteSems:        DefaultWriteSems,
		FallocVariants:   DefaultFallocVariants,
		IncludeFdatasync: true,
		XattrNames:       []string{"user.u1", "user.u2"},
	}
}

// GenFormat versions the enumeration order itself. Corpus records are keyed
// by 1-based generation sequence number, so any change to the order or the
// set of emitted workloads — a pruning-guard fix, a new phase, reordered
// choices — silently remaps every recorded verdict onto a different
// workload unless resume is refused. Bump this whenever Generate's output
// sequence changes for equal Bounds.
//
// History: 1 = seed enumeration; 2 = dir-rename symmetry fix (cross-
// directory directory pairs are generated in both orders).
const GenFormat = 2

// Fingerprint returns a stable hash string identifying the exact workload
// space, generation order included: equal fingerprints mean Generate emits
// the same workloads with the same sequence numbers. Campaign corpora use
// it to refuse resuming against a different space; GenFormat folds the
// (otherwise implicit) enumeration order into the contract.
func (b Bounds) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "gen%d|%#v", GenFormat, b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ProfileName selects one of the Table 4 workload sets.
type ProfileName string

const (
	ProfileSeq1         ProfileName = "seq-1"
	ProfileSeq2         ProfileName = "seq-2"
	ProfileSeq3Data     ProfileName = "seq-3-data"
	ProfileSeq3Metadata ProfileName = "seq-3-metadata"
	ProfileSeq3Nested   ProfileName = "seq-3-nested"
)

// Profiles lists the Table 4 workload sets in paper order.
func Profiles() []ProfileName {
	return []ProfileName{ProfileSeq1, ProfileSeq2, ProfileSeq3Data,
		ProfileSeq3Metadata, ProfileSeq3Nested}
}

// Profile returns the bounds for one Table 4 row.
func Profile(name ProfileName) (Bounds, error) {
	switch name {
	case ProfileSeq1:
		return Default(1), nil
	case ProfileSeq2:
		return Default(2), nil
	case ProfileSeq3Data:
		b := Default(3)
		b.Ops = []workload.OpKind{workload.OpWrite, workload.OpMWrite,
			workload.OpDWrite, workload.OpFalloc}
		// Data profile concentrates on a single file so the three
		// operations interact through overlapping ranges (§4.2 bound 3).
		b.Files = []string{"/foo"}
		return b, nil
	case ProfileSeq3Metadata:
		b := Default(3)
		b.Ops = []workload.OpKind{workload.OpWrite, workload.OpLink,
			workload.OpUnlink, workload.OpRename}
		b.WriteSems = DefaultWriteSems[:2]
		// Metadata profile reuses names inside the two directories, the
		// pattern the study found in most reported bugs (§3).
		b.Files = []string{"/A/foo", "/A/bar", "/B/foo", "/B/bar"}
		return b, nil
	case ProfileSeq3Nested:
		b := Default(3)
		b.Ops = []workload.OpKind{workload.OpLink, workload.OpRename}
		b.Files = NestedFiles()
		b.Dirs = NestedDirs()
		return b, nil
	}
	return Bounds{}, fmt.Errorf("ace: unknown profile %q", name)
}

// choice is one phase-2 parameter assignment for a skeleton slot.
type choice struct {
	op workload.Op
	// persistTargets are the paths phase 3 may fsync after this op.
	persistTargets []string
	// dataOp enables fdatasync/msync persistence options.
	dataOp bool
	// persist and persistFinal are persistChoices of this choice in a
	// middle slot and in the final one, built once per walk.
	persist, persistFinal []persistChoice
}

func parentOf(path string) string {
	comps := fstree.SplitPath(path)
	if len(comps) <= 1 {
		return "/"
	}
	out := ""
	for _, c := range comps[:len(comps)-1] {
		out += "/" + c
	}
	return out
}

// sameDir reports whether two paths share a parent directory.
func sameDir(a, b string) bool { return parentOf(a) == parentOf(b) }

// paramChoices enumerates phase-2 parameters for one op kind, applying the
// symmetry pruning of §5.2 ("eliminate the generation of symmetrical
// workloads", e.g. link(foo, bar) vs link(bar, foo) in the same directory).
func (b Bounds) paramChoices(kind workload.OpKind) []choice {
	var out []choice
	add := func(op workload.Op, targets []string, dataOp bool) {
		out = append(out, choice{op: op, persistTargets: targets, dataOp: dataOp})
	}
	fileTargets := func(p string) []string { return []string{p, parentOf(p)} }

	// Phase 2 parameterizes only the data/metadata ops ACE's bounds include;
	// persistence ops are chosen in phase 3, OpNone is a sentinel, and
	// symlink is outside the paper's default phase-2 set. An unlisted kind
	// yields no choices and the caller drops the skeleton.
	//lint:allow exhaustenum phase-2 subset is the ACE §5 op table, not the full OpKind enum
	switch kind {
	case workload.OpCreat, workload.OpMkfifo:
		for _, f := range b.Files {
			add(workload.Op{Kind: kind, Path: f}, fileTargets(f), false)
		}
	case workload.OpMkdir:
		for _, d := range b.Dirs {
			add(workload.Op{Kind: kind, Path: d}, []string{d, parentOf(d)}, false)
		}
	case workload.OpWrite, workload.OpDWrite, workload.OpMWrite:
		for _, f := range b.Files {
			for _, sem := range b.WriteSems {
				add(workload.Op{Kind: kind, Path: f, Off: sem.Off, Len: sem.Len},
					fileTargets(f), true)
			}
		}
	case workload.OpFalloc:
		for _, f := range b.Files {
			for _, v := range b.FallocVariants {
				add(workload.Op{Kind: kind, Path: f, Mode: v.Mode, Off: v.Off, Len: v.Len},
					fileTargets(f), true)
			}
		}
	case workload.OpLink:
		for _, src := range b.Files {
			for _, dst := range b.Files {
				if src == dst {
					continue
				}
				// Same-directory pairs are symmetric: keep canonical order.
				if sameDir(src, dst) && src > dst {
					continue
				}
				add(workload.Op{Kind: kind, Path: src, Path2: dst},
					[]string{src, dst, parentOf(dst)}, false)
			}
		}
	case workload.OpRename:
		for _, src := range b.Files {
			for _, dst := range b.Files {
				if src == dst {
					continue
				}
				if sameDir(src, dst) && src > dst {
					continue
				}
				add(workload.Op{Kind: kind, Path: src, Path2: dst},
					[]string{dst, parentOf(dst), parentOf(src)}, false)
			}
		}
		// Directory renames (the Table 5 #4/#10 shape). Only same-directory
		// pairs are symmetric, so cross-directory pairs must be kept in both
		// orders — an unconditional src > dst guard silently dropped every
		// upward rename of a nested dir over a lexicographically smaller
		// target (e.g. rename(/B/C, /A)). Like any phase-2 choice, a pair
		// may still be structurally impossible (rename(/A/C, /A) moves a
		// dir over its own never-empty parent); phase 4's model validation
		// discards those.
		for _, src := range b.Dirs {
			for _, dst := range b.Dirs {
				if src == dst || (sameDir(src, dst) && src > dst) {
					continue
				}
				add(workload.Op{Kind: kind, Path: src, Path2: dst},
					[]string{dst, parentOf(dst)}, false)
			}
		}
	case workload.OpUnlink, workload.OpRemove:
		for _, f := range b.Files {
			add(workload.Op{Kind: kind, Path: f}, []string{parentOf(f)}, false)
		}
	case workload.OpRmdir:
		for _, d := range b.Dirs {
			add(workload.Op{Kind: kind, Path: d}, []string{parentOf(d)}, false)
		}
	case workload.OpTruncate:
		for _, f := range b.Files {
			for _, size := range []int64{0, 4096, DepFileSize + 8192} {
				add(workload.Op{Kind: kind, Path: f, Off: size}, fileTargets(f), true)
			}
		}
	case workload.OpSetXattr:
		for _, f := range b.Files {
			for _, name := range b.XattrNames {
				add(workload.Op{Kind: kind, Path: f, Name: name, Value: "val"},
					fileTargets(f), false)
			}
		}
	case workload.OpRemoveXattr:
		for _, f := range b.Files {
			for _, name := range b.XattrNames {
				add(workload.Op{Kind: kind, Path: f, Name: name}, fileTargets(f), false)
			}
		}
	}
	return out
}

// persistChoice is one phase-3 option after a core op.
type persistChoice struct {
	op   workload.Op
	none bool
}

// persistChoices enumerates phase-3 options for a slot. The final slot may
// not choose "none" (§5.2 phase 3: the last operation is always followed by
// a persistence point, so the workload is not equivalent to a shorter one).
func (b Bounds) persistChoices(c choice, final bool) []persistChoice {
	var out []persistChoice
	if !final {
		out = append(out, persistChoice{none: true})
	}
	seen := map[string]bool{}
	for _, target := range c.persistTargets {
		if seen[target] {
			continue
		}
		seen[target] = true
		out = append(out, persistChoice{op: workload.Op{Kind: workload.OpFsync, Path: target}})
	}
	if c.dataOp && b.IncludeFdatasync {
		if c.op.Kind == workload.OpMWrite {
			out = append(out, persistChoice{op: workload.Op{
				Kind: workload.OpMSync, Path: c.op.Path, Off: 0, Len: DepFileSize + 65536}})
		} else {
			out = append(out, persistChoice{op: workload.Op{Kind: workload.OpFdatasync, Path: c.op.Path}})
		}
	}
	out = append(out, persistChoice{op: workload.Op{Kind: workload.OpSync}})
	return out
}
