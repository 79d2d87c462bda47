// Package workload defines the high-level workload language shared by ACE
// (which generates workloads) and CrashMonkey (which executes them). The
// textual form mirrors the paper's Figure 4 / appendix notation:
//
//	mkdir /A
//	creat /A/foo
//	write /A/foo 0 16384
//	link /A/foo /A/bar
//	fsync /A/foo
//	sync
//
// A workload is a sequence of operations; persistence operations (fsync,
// fdatasync, msync, sync — and dwrite, whose completion makes data durable)
// define the crash points B3 explores.
package workload

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"b3/internal/filesys"
)

// OpKind enumerates the file-system operations ACE supports (§5.2 lists 14
// core operations; persistence operations and dependency helpers complete
// the language).
type OpKind uint8

const (
	OpNone OpKind = iota
	OpCreat
	OpMkdir
	OpSymlink
	OpMkfifo
	OpLink
	OpUnlink
	OpRmdir
	OpRemove // unlink-or-rmdir, per coreutils rm semantics
	OpRename
	OpTruncate
	OpWrite  // buffered write
	OpDWrite // direct-IO write (durable at completion)
	OpMWrite // store via mmap
	OpFalloc
	OpSetXattr
	OpRemoveXattr
	OpFsync
	OpFdatasync
	OpMSync
	OpSync
)

var opNames = map[OpKind]string{
	OpCreat: "creat", OpMkdir: "mkdir", OpSymlink: "symlink", OpMkfifo: "mkfifo",
	OpLink: "link", OpUnlink: "unlink", OpRmdir: "rmdir", OpRemove: "remove",
	OpRename: "rename", OpTruncate: "truncate", OpWrite: "write", OpDWrite: "dwrite",
	OpMWrite: "mwrite", OpFalloc: "falloc", OpSetXattr: "setxattr",
	OpRemoveXattr: "removexattr", OpFsync: "fsync", OpFdatasync: "fdatasync",
	OpMSync: "msync", OpSync: "sync",
}

// String returns the canonical operation name.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", k)
}

// IsPersistence reports whether the operation creates a crash point: its
// completion changes the durable state (§3: "all reported bugs involved a
// crash right after a persistence point").
func (k OpKind) IsPersistence() bool {
	// The subset IS the definition: these five kinds are the crash points.
	//lint:allow exhaustenum every other kind is by definition non-persistence
	switch k {
	case OpFsync, OpFdatasync, OpMSync, OpSync, OpDWrite:
		return true
	}
	return false
}

// Op is one operation with its arguments.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // link/rename target, symlink link path
	Off   int64
	Len   int64
	Mode  filesys.FallocMode // falloc flavour
	Name  string             // xattr name
	Value string             // xattr value
}

// String renders the op in the workload language.
func (o Op) String() string {
	switch o.Kind {
	case OpSync:
		return "sync"
	case OpCreat, OpMkdir, OpMkfifo, OpUnlink, OpRmdir, OpRemove, OpFsync, OpFdatasync:
		return fmt.Sprintf("%s %s", o.Kind, o.Path)
	case OpSymlink, OpLink, OpRename:
		return fmt.Sprintf("%s %s %s", o.Kind, o.Path, o.Path2)
	case OpTruncate:
		return fmt.Sprintf("truncate %s %d", o.Path, o.Off)
	case OpWrite, OpDWrite, OpMWrite, OpMSync:
		return fmt.Sprintf("%s %s %d %d", o.Kind, o.Path, o.Off, o.Len)
	case OpFalloc:
		return fmt.Sprintf("%s %s %d %d", o.Mode, o.Path, o.Off, o.Len)
	case OpSetXattr:
		return fmt.Sprintf("setxattr %s %s %s", o.Path, o.Name, o.Value)
	case OpRemoveXattr:
		return fmt.Sprintf("removexattr %s %s", o.Path, o.Name)
	default:
		// OpNone and unknown kinds render as the bare kind ("op(0)").
		return o.Kind.String()
	}
}

// Workload is an executable sequence of operations.
type Workload struct {
	// ID identifies the workload (appendix name or ACE sequence number).
	ID string
	// Ops is the full operation list, dependencies included.
	Ops []Op
	// CoreOps indexes Ops: the positions of the core (non-dependency,
	// non-persistence) operations; the skeleton (Figure 5) derives from it.
	CoreOps []int
}

// Skeleton returns the core-operation signature used for bug-report
// grouping (Figure 5: "GROUP BY skeleton and consequence").
func (w *Workload) Skeleton() string {
	if len(w.CoreOps) == 0 {
		// Fall back to all mutating ops.
		var parts []string
		for _, op := range w.Ops {
			if !op.Kind.IsPersistence() {
				parts = append(parts, op.Kind.String())
			}
		}
		return strings.Join(parts, "-")
	}
	parts := make([]string, 0, len(w.CoreOps))
	for _, idx := range w.CoreOps {
		if idx >= 0 && idx < len(w.Ops) {
			parts = append(parts, w.Ops[idx].Kind.String())
		}
	}
	return strings.Join(parts, "-")
}

// SkeletonAt returns the skeleton of the workload prefix ending at the
// cp-th persistence point (1-based): the bug-grouping signature for a crash
// simulated there. A crash at an early persistence point reconstructs the
// state of the equivalent shorter workload, so its report must group — and
// deduplicate against known bugs — under that shorter skeleton, not the
// full sequence's. Out-of-range cp falls back to the full skeleton.
func (w *Workload) SkeletonAt(cp int) string {
	pps := w.PersistencePoints()
	if cp < 1 || cp > len(pps) {
		return w.Skeleton()
	}
	limit := pps[cp-1]
	var parts []string
	if len(w.CoreOps) == 0 {
		for i, op := range w.Ops {
			if i > limit {
				break
			}
			if !op.Kind.IsPersistence() {
				parts = append(parts, op.Kind.String())
			}
		}
	} else {
		for _, idx := range w.CoreOps {
			// <= limit: a core op that is itself the persistence point
			// (dwrite) has completed at this crash point, so it belongs to
			// the prefix skeleton.
			if idx >= 0 && idx < len(w.Ops) && idx <= limit {
				parts = append(parts, w.Ops[idx].Kind.String())
			}
		}
	}
	return strings.Join(parts, "-")
}

// PersistencePoints returns the indices of ops that create crash points.
func (w *Workload) PersistencePoints() []int {
	var out []int
	for i, op := range w.Ops {
		if op.Kind.IsPersistence() {
			out = append(out, i)
		}
	}
	return out
}

// String renders the workload, one op per line.
func (w *Workload) String() string {
	var sb strings.Builder
	for _, op := range w.Ops {
		sb.WriteString(op.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse reads a workload in the textual language. Lines starting with '#'
// and blank lines are ignored.
func Parse(id, text string) (*Workload, error) {
	w := &Workload{ID: id}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("workload %s line %d: %w", id, lineNo+1, err)
		}
		w.Ops = append(w.Ops, op)
	}
	if len(w.Ops) == 0 {
		return nil, fmt.Errorf("workload %s: empty", id)
	}
	return w, nil
}

func parseLine(line string) (Op, error) {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]

	// falloc flavours: "falloc", "falloc -k", "punch_hole", "zero_range",
	// "zero_range -k".
	mode := filesys.FallocDefault
	isFalloc := false
	switch cmd {
	case "falloc":
		isFalloc = true
		if len(args) > 0 && args[0] == "-k" {
			mode = filesys.FallocKeepSize
			args = args[1:]
		}
	case "punch_hole":
		isFalloc = true
		mode = filesys.FallocPunchHole
		if len(args) > 0 && args[0] == "-k" {
			args = args[1:]
		}
	case "zero_range":
		isFalloc = true
		mode = filesys.FallocZeroRange
		if len(args) > 0 && args[0] == "-k" {
			mode = filesys.FallocZeroRangeKeepSize
			args = args[1:]
		}
	}
	if isFalloc {
		if len(args) != 3 {
			return Op{}, fmt.Errorf("falloc needs path off len")
		}
		off, err1 := strconv.ParseInt(args[1], 10, 64)
		length, err2 := strconv.ParseInt(args[2], 10, 64)
		if err1 != nil || err2 != nil {
			return Op{}, fmt.Errorf("bad falloc range %q %q", args[1], args[2])
		}
		return Op{Kind: OpFalloc, Mode: mode, Path: args[0], Off: off, Len: length}, nil
	}

	one := func(kind OpKind) (Op, error) {
		if len(args) != 1 {
			return Op{}, fmt.Errorf("%s needs one path", cmd)
		}
		return Op{Kind: kind, Path: args[0]}, nil
	}
	two := func(kind OpKind) (Op, error) {
		if len(args) != 2 {
			return Op{}, fmt.Errorf("%s needs two paths", cmd)
		}
		return Op{Kind: kind, Path: args[0], Path2: args[1]}, nil
	}
	ranged := func(kind OpKind) (Op, error) {
		if len(args) != 3 {
			return Op{}, fmt.Errorf("%s needs path off len", cmd)
		}
		off, err1 := strconv.ParseInt(args[1], 10, 64)
		length, err2 := strconv.ParseInt(args[2], 10, 64)
		if err1 != nil || err2 != nil {
			return Op{}, fmt.Errorf("bad range %q %q", args[1], args[2])
		}
		return Op{Kind: kind, Path: args[0], Off: off, Len: length}, nil
	}

	switch cmd {
	case "creat", "touch":
		return one(OpCreat)
	case "mkdir":
		return one(OpMkdir)
	case "mkfifo":
		return one(OpMkfifo)
	case "symlink":
		return two(OpSymlink)
	case "link":
		return two(OpLink)
	case "unlink":
		return one(OpUnlink)
	case "rmdir":
		return one(OpRmdir)
	case "remove", "rm":
		return one(OpRemove)
	case "rename", "mv":
		return two(OpRename)
	case "truncate":
		if len(args) != 2 {
			return Op{}, fmt.Errorf("truncate needs path size")
		}
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return Op{}, fmt.Errorf("bad size %q", args[1])
		}
		return Op{Kind: OpTruncate, Path: args[0], Off: size}, nil
	case "write":
		return ranged(OpWrite)
	case "dwrite":
		return ranged(OpDWrite)
	case "mwrite":
		return ranged(OpMWrite)
	case "msync":
		return ranged(OpMSync)
	case "setxattr":
		if len(args) != 3 {
			return Op{}, fmt.Errorf("setxattr needs path name value")
		}
		return Op{Kind: OpSetXattr, Path: args[0], Name: args[1], Value: args[2]}, nil
	case "removexattr":
		if len(args) != 2 {
			return Op{}, fmt.Errorf("removexattr needs path name")
		}
		return Op{Kind: OpRemoveXattr, Path: args[0], Name: args[1]}, nil
	case "fsync":
		return one(OpFsync)
	case "fdatasync":
		return one(OpFdatasync)
	case "sync":
		return Op{Kind: OpSync}, nil
	}
	return Op{}, fmt.Errorf("unknown operation %q", cmd)
}

// FillByte returns the deterministic data byte for the i-th op of a
// workload: generated content is reproducible and distinguishable per op.
func FillByte(opIndex int) byte { return byte(opIndex%250) + 1 }

// maxSharedFill bounds the fills that Fill shares; longer ones are built
// fresh on every call.
const maxSharedFill = 1 << 20

// fills holds, per fill byte, the longest shared fill built so far.
var fills [256]atomic.Pointer[[]byte]

// Fill returns n bytes of the fill pattern for op index opIndex. The slice
// is shared by every caller and must not be modified; MountedFS writes
// neither modify nor retain their data, so it can be passed to them as is.
func Fill(opIndex int, n int64) []byte {
	b := FillByte(opIndex)
	if n > maxSharedFill {
		return bytes.Repeat([]byte{b}, int(n))
	}
	slot := &fills[b]
	if p := slot.Load(); p != nil && int64(len(*p)) >= n {
		return (*p)[:n:n]
	}
	// Round up to a power of two so growing lengths rebuild the buffer only
	// a few times; concurrent builders may race, and any winner is correct.
	size := int64(4096)
	for size < n {
		size *= 2
	}
	buf := bytes.Repeat([]byte{b}, int(size))
	slot.Store(&buf)
	return buf[:n:n]
}

// Apply executes one op against a mounted file system. Write-class ops use
// the deterministic fill pattern for op index i.
func Apply(m filesys.MountedFS, op Op, opIndex int) error {
	switch op.Kind {
	case OpCreat:
		return m.Create(op.Path)
	case OpMkdir:
		return m.Mkdir(op.Path)
	case OpSymlink:
		return m.Symlink(op.Path, op.Path2)
	case OpMkfifo:
		return m.Mkfifo(op.Path)
	case OpLink:
		return m.Link(op.Path, op.Path2)
	case OpUnlink:
		return m.Unlink(op.Path)
	case OpRmdir:
		return m.Rmdir(op.Path)
	case OpRemove:
		if st, err := m.Stat(op.Path); err == nil && st.Kind == filesys.KindDir {
			return m.Rmdir(op.Path)
		}
		return m.Unlink(op.Path)
	case OpRename:
		return m.Rename(op.Path, op.Path2)
	case OpTruncate:
		return m.Truncate(op.Path, op.Off)
	case OpWrite:
		return m.Write(op.Path, op.Off, Fill(opIndex, op.Len))
	case OpDWrite:
		return m.WriteDirect(op.Path, op.Off, Fill(opIndex, op.Len))
	case OpMWrite:
		return m.MWrite(op.Path, op.Off, Fill(opIndex, op.Len))
	case OpFalloc:
		return m.Falloc(op.Path, op.Mode, op.Off, op.Len)
	case OpSetXattr:
		return m.SetXattr(op.Path, op.Name, []byte(op.Value))
	case OpRemoveXattr:
		return m.RemoveXattr(op.Path, op.Name)
	case OpFsync:
		return m.Fsync(op.Path)
	case OpFdatasync:
		return m.Fdatasync(op.Path)
	case OpMSync:
		return m.MSync(op.Path, op.Off, op.Len)
	case OpSync:
		return m.Sync()
	default:
		return fmt.Errorf("workload: cannot apply %v", op.Kind)
	}
}
