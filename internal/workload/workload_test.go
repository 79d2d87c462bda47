package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"b3/internal/filesys"
)

func TestParsePrintRoundTrip(t *testing.T) {
	text := `
mkdir /A
creat /A/foo
write /A/foo 0 16384
dwrite /A/foo 0 4096
mwrite /A/foo 8192 4096
falloc /A/foo 16384 4096
falloc -k /A/foo 20480 4096
punch_hole /A/foo 4096 8192
zero_range /A/foo 0 4096
zero_range -k /A/foo 16384 4096
truncate /A/foo 8192
link /A/foo /A/bar
symlink /target /A/ln
mkfifo /A/pipe
setxattr /A/foo user.k v
removexattr /A/foo user.k
rename /A/bar /A/baz
unlink /A/baz
remove /A/foo
rmdir /A
msync /A/x 0 65536
fsync /A/x
fdatasync /A/x
sync
`
	w, err := Parse("rt", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Ops) != 24 {
		t.Fatalf("parsed %d ops", len(w.Ops))
	}
	// Print and re-parse: identical op lists.
	again, err := Parse("rt2", w.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, w)
	}
	if len(again.Ops) != len(w.Ops) {
		t.Fatalf("round trip lost ops: %d vs %d", len(again.Ops), len(w.Ops))
	}
	for i := range w.Ops {
		if w.Ops[i] != again.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, w.Ops[i], again.Ops[i])
		}
	}
}

func TestParseAliases(t *testing.T) {
	w, err := Parse("alias", "touch /f\nmv /f /g\nrm /g\nsync\n")
	if err != nil {
		t.Fatal(err)
	}
	if w.Ops[0].Kind != OpCreat || w.Ops[1].Kind != OpRename || w.Ops[2].Kind != OpRemove {
		t.Fatalf("aliases wrong: %v", w.Ops)
	}
}

func TestParseComments(t *testing.T) {
	w, err := Parse("c", "# header\n\ncreat /f\n# done\nsync\n")
	if err != nil || len(w.Ops) != 2 {
		t.Fatalf("%v %v", w, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "frobnicate /x", "write /f", "write /f a b", "link /a",
		"truncate /f", "falloc /f 1", "setxattr /f k",
	} {
		if _, err := Parse("bad", bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestFallocModeRoundTrip(t *testing.T) {
	modes := map[string]filesys.FallocMode{
		"falloc /f 0 4096":        filesys.FallocDefault,
		"falloc -k /f 0 4096":     filesys.FallocKeepSize,
		"punch_hole /f 0 4096":    filesys.FallocPunchHole,
		"zero_range /f 0 4096":    filesys.FallocZeroRange,
		"zero_range -k /f 0 4096": filesys.FallocZeroRangeKeepSize,
	}
	for text, want := range modes {
		w, err := Parse("m", text+"\nsync")
		if err != nil {
			t.Fatal(err)
		}
		if w.Ops[0].Mode != want {
			t.Errorf("%q parsed mode %v, want %v", text, w.Ops[0].Mode, want)
		}
	}
}

func TestIsPersistence(t *testing.T) {
	persist := map[OpKind]bool{
		OpFsync: true, OpFdatasync: true, OpMSync: true, OpSync: true, OpDWrite: true,
	}
	for k := OpCreat; k <= OpSync; k++ {
		if k.IsPersistence() != persist[k] {
			t.Errorf("%v.IsPersistence() = %v", k, k.IsPersistence())
		}
	}
}

func TestSkeleton(t *testing.T) {
	w, err := Parse("sk", "mkdir /A\ncreat /A/f\nlink /A/f /A/g\nfsync /A/f\n")
	if err != nil {
		t.Fatal(err)
	}
	w.CoreOps = []int{2} // only the link is a core op
	if got := w.Skeleton(); got != "link" {
		t.Fatalf("skeleton = %q", got)
	}
	w.CoreOps = nil
	if got := w.Skeleton(); got != "mkdir-creat-link" {
		t.Fatalf("fallback skeleton = %q", got)
	}
}

func TestPersistencePoints(t *testing.T) {
	w, err := Parse("pp", "creat /f\nfsync /f\nwrite /f 0 4096\nsync\n")
	if err != nil {
		t.Fatal(err)
	}
	pts := w.PersistencePoints()
	if len(pts) != 2 || pts[0] != 1 || pts[1] != 3 {
		t.Fatalf("points = %v", pts)
	}
}

func TestQuickOpStringParses(t *testing.T) {
	// Property: every op the generator can produce renders to text that
	// parses back to the same op.
	paths := []string{"/foo", "/A/foo", "/B/bar"}
	f := func(kindRaw uint8, pathIdx, path2Idx uint8, off, ln uint16) bool {
		kind := OpKind(kindRaw%uint8(OpSync) + 1)
		op := Op{Kind: kind, Path: paths[int(pathIdx)%len(paths)]}
		// Only kinds with extra arguments need more than the path set above.
		//lint:allow exhaustenum kinds not listed take no extra parameters
		switch kind {
		case OpSymlink, OpLink, OpRename:
			op.Path2 = paths[int(path2Idx)%len(paths)]
		case OpWrite, OpDWrite, OpMWrite, OpMSync:
			op.Off = int64(off)
			op.Len = int64(ln) + 1
		case OpTruncate:
			op.Off = int64(off)
		case OpFalloc:
			op.Off = int64(off)
			op.Len = int64(ln) + 1
			op.Mode = filesys.FallocMode(path2Idx % 5)
		case OpSetXattr:
			op.Name = "user.k"
			op.Value = "v"
		case OpRemoveXattr:
			op.Name = "user.k"
		case OpSync:
			op.Path = ""
		}
		w, err := Parse("q", op.String())
		if err != nil {
			return false
		}
		return len(w.Ops) == 1 && w.Ops[0] == op
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFillByteDeterministic(t *testing.T) {
	if FillByte(3) != FillByte(3) || FillByte(0) == 0 {
		t.Fatal("fill byte must be deterministic and non-zero")
	}
	if FillByte(1) == FillByte(2) {
		t.Fatal("adjacent ops should write distinguishable bytes")
	}
}

// TestFillSharesReadOnlyBuffers: Fill returns the op's fill pattern, shared
// between calls up to 1 MiB (cap == len, so an append never reaches the
// shared tail) and fresh beyond. Goroutines fill concurrently so -race sees
// the shared buffers being built and read.
func TestFillSharesReadOnlyBuffers(t *testing.T) {
	check := func(opIndex int, n int64) error {
		got := Fill(opIndex, n)
		if int64(len(got)) != n || cap(got) != len(got) {
			return fmt.Errorf("Fill(%d, %d): len %d cap %d", opIndex, n, len(got), cap(got))
		}
		if want := bytes.Repeat([]byte{FillByte(opIndex)}, int(n)); !bytes.Equal(got, want) {
			return fmt.Errorf("Fill(%d, %d): wrong pattern", opIndex, n)
		}
		return nil
	}
	errs := make(chan error, 4)
	for g := range 4 {
		go func() {
			for i, n := range []int64{0, 1, 4096, 100, 16384, 9000, 1 << 20, 3} {
				if err := check(g*3+i, n); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	a, b := Fill(7, 5000), Fill(7, 3000)
	if &a[0] != &b[0] {
		t.Fatal("fills of one op index up to 1 MiB must share one buffer")
	}
	big := Fill(7, 1<<20+1)
	if &big[0] == &Fill(7, 1<<20+1)[0] || !bytes.Equal(big[:5000], a) {
		t.Fatal("fills over 1 MiB must be built fresh, with the same pattern")
	}
}

func TestWorkloadString(t *testing.T) {
	w, err := Parse("s", "creat /f\nsync\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "creat /f") {
		t.Fatalf("String() = %q", w.String())
	}
}

func TestSkeletonAtPrefixes(t *testing.T) {
	w, err := Parse("sk", `
creat /foo
fsync /foo
dwrite /foo 0 4096
sync
`)
	if err != nil {
		t.Fatal(err)
	}
	w.CoreOps = []int{0, 2} // creat, dwrite (as ACE would mark them)

	// dwrite is both a core op and a persistence point: the checkpoint it
	// creates must include it in the prefix skeleton.
	if got := w.SkeletonAt(2); got != "creat-dwrite" {
		t.Fatalf("SkeletonAt(2) = %q, want creat-dwrite", got)
	}
	if got := w.SkeletonAt(1); got != "creat" {
		t.Fatalf("SkeletonAt(1) = %q, want creat", got)
	}
	// Final and out-of-range checkpoints match the full skeleton.
	if got := w.SkeletonAt(3); got != w.Skeleton() {
		t.Fatalf("SkeletonAt(final) = %q, want %q", got, w.Skeleton())
	}
	if got := w.SkeletonAt(99); got != w.Skeleton() {
		t.Fatalf("SkeletonAt(out of range) = %q, want %q", got, w.Skeleton())
	}
}
