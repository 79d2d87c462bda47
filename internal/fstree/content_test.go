package fstree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"b3/internal/codec"
	"b3/internal/filesys"
)

// contentBytes is the content of n as one slice.
func contentBytes(n *Node) []byte { return n.Data.Bytes() }

// contentModel runs content mutations on the file /f of several trees —
// clones and decoded copies of one another — and keeps, per tree, a flat
// []byte reference of what /f must hold.
type contentModel struct {
	trees []*Tree
	refs  [][]byte
	fill  byte // the byte the next fresh write stores
}

// maxContentTrees bounds the trees a model clones or decodes.
const maxContentTrees = 6

func newContentModel(t testing.TB) *contentModel {
	tr := New()
	if _, err := tr.Create("/f"); err != nil {
		t.Fatal(err)
	}
	return &contentModel{trees: []*Tree{tr}, refs: [][]byte{{}}}
}

// refZero zeroes ref[off:end) within ref's length.
func refZero(ref []byte, off, end int64) {
	if end > int64(len(ref)) {
		end = int64(len(ref))
	}
	if off < end {
		clear(ref[off:end])
	}
}

// refResize returns ref cut or zero-extended to size.
func refResize(ref []byte, size int64) []byte {
	if size <= int64(len(ref)) {
		return ref[:size]
	}
	return append(ref, make([]byte, size-int64(len(ref)))...)
}

// data returns length bytes for a write, from the source src picks: a zero
// view, a fresh buffer of one byte value, or a fresh buffer of a pattern
// that differs at every page. The caller never modifies it afterwards.
func (m *contentModel) data(src byte, length int64) []byte {
	switch src % 3 {
	case 0:
		return Zeros(length)
	case 1:
		m.fill++
		return bytes.Repeat([]byte{m.fill | 1}, int(length))
	default:
		m.fill++
		b := make([]byte, length)
		for i := range b {
			b[i] = byte(i/4096) + m.fill
		}
		return b
	}
}

// step applies the op the 6 bytes of op encode and checks every tree
// against its reference.
func (m *contentModel) step(t testing.TB, op []byte) {
	t.Helper()
	i := int(op[1]) % len(m.trees)
	tr, ref := m.trees[i], m.refs[i]
	off := int64(op[2])<<8 | int64(op[3])
	length := int64(op[4])<<8 | int64(op[5])
	if op[0]&0x80 != 0 { // page-aligned offsets and lengths are the common case
		off, length = off&^4095, length&^4095
	}
	var name string
	var err error
	switch kind := op[0] & 0x7f % 12; kind {
	case 0, 1: // Tree.Write
		name = fmt.Sprintf("write %d+%d", off, length)
		d := m.data(op[1]>>4, length)
		_, err = tr.Write("/f", off, d)
		ref = refResize(ref, max(off+length, int64(len(ref))))
		copy(ref[off:], d)
	case 2: // Node.WriteAt through Edit
		name = fmt.Sprintf("writeat %d+%d", off, length)
		d := m.data(op[1]>>4, length)
		n, lerr := editPath(tr, "/f")
		if err = lerr; err == nil {
			n.WriteAt(off, d)
		}
		ref = refResize(ref, max(off+length, int64(len(ref))))
		copy(ref[off:], d)
	case 3: // Tree.Truncate
		name = fmt.Sprintf("truncate %d", off)
		_, err = tr.Truncate("/f", off)
		ref = refResize(ref, off)
	case 4: // Node.Resize through Edit
		name = fmt.Sprintf("resize %d", length)
		n, lerr := editPath(tr, "/f")
		if err = lerr; err == nil {
			n.Resize(length)
		}
		ref = refResize(ref, length)
	case 5, 6, 7:
		mode := []filesys.FallocMode{filesys.FallocDefault, filesys.FallocKeepSize,
			filesys.FallocPunchHole, filesys.FallocZeroRange,
			filesys.FallocZeroRangeKeepSize}[int(op[1]>>4)%5]
		length = max(length, 1)
		name = fmt.Sprintf("falloc %d %d+%d", mode, off, length)
		_, err = tr.Falloc("/f", mode, off, length)
		end := off + length
		switch mode {
		case filesys.FallocDefault:
			ref = refResize(ref, max(end, int64(len(ref))))
		case filesys.FallocPunchHole, filesys.FallocZeroRangeKeepSize:
			refZero(ref, off, end)
		case filesys.FallocZeroRange:
			ref = refResize(ref, max(end, int64(len(ref))))
			refZero(ref, off, end)
		case filesys.FallocKeepSize:
			// Allocation only: the bytes and the size stay.
		}
	case 8, 9, 10, 11: // Clone or decode a copy, then keep writing both
		if len(m.trees) >= maxContentTrees {
			return
		}
		c := tr.Clone()
		name = "clone"
		if kind >= 10 {
			name = "decode"
			e := codec.NewEncoder(0)
			tr.Encode(e)
			c, err = DecodeTree(codec.NewDecoder(e.Bytes()))
		}
		m.trees = append(m.trees, c)
		m.refs = append(m.refs, bytes.Clone(ref))
	}
	if err != nil {
		t.Fatalf("%s on tree %d: %v", name, i, err)
	}
	m.refs[i] = ref
	for j, tr := range m.trees {
		n, err := tr.Lookup("/f")
		if err != nil {
			t.Fatalf("after %s on tree %d: tree %d: %v", name, i, j, err)
		}
		if got := contentBytes(n); !bytes.Equal(got, m.refs[j]) || n.Size() != int64(len(m.refs[j])) {
			t.Fatalf("after %s on tree %d: tree %d holds %d bytes (size %d), want its %d-byte reference",
				name, i, j, len(got), n.Size(), len(m.refs[j]))
		}
	}
}

// run applies ops, 6 bytes per op; a short tail is ignored.
func (m *contentModel) run(t testing.TB, ops []byte) {
	t.Helper()
	for ; len(ops) >= 6; ops = ops[6:] {
		m.step(t, ops[:6])
	}
	if !bytes.Equal(zeroPage[:], make([]byte, len(zeroPage))) {
		t.Fatal("the zero page was written")
	}
}

// TestContentMatchesFlatModel runs seeded random sequences of Write,
// WriteAt, Truncate, Resize, Falloc in every mode, Clone and decode over
// files up to twice the zero page, and checks after every step that every
// tree — the one written and all its clones and decoded copies — reads
// exactly what a flat []byte model holds. -short runs a quarter of the
// seeds.
func TestContentMatchesFlatModel(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6*60)
		rng.Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { newContentModel(t).run(t, ops) })
	}
}

// FuzzContent is TestContentMatchesFlatModel driven by the fuzzer: every 6
// bytes of input are one op.
func FuzzContent(f *testing.F) {
	f.Add([]byte{0x80, 0x10, 0x40, 0, 0x40, 0, 0x88, 0, 0, 0, 0, 0, 0x80, 0x10, 0x10, 0, 0x10, 0, 0x05, 0x30, 0x10, 7, 0x30, 1})
	f.Add([]byte{0x01, 0x20, 0x00, 0x10, 0x30, 0x00, 0x0a, 0, 0, 0, 0, 0, 0x02, 0x21, 0x20, 0x01, 0x00, 0x77, 0x04, 0, 0, 0, 0x05, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 6*200 {
			ops = ops[:6*200]
		}
		newContentModel(t).run(t, ops)
	})
}

// TestPartialWritesCopyOnlyTheirPages pins what ACE's Table 3 write
// classes cost on a 16 KiB file: a 4 KiB append and an 8 KiB overwrite of
// the middle each allocate at most one page and the page table, and a grow
// to 24 KiB allocates no file-sized buffer. Copying the whole file, as flat
// content did, allocates 20 KiB, 16 KiB and 24 KiB.
func TestPartialWritesCopyOnlyTheirPages(t *testing.T) {
	const size = 4 * pageSize
	base := Flat(bytes.Repeat([]byte{1}, int(size)))
	page, twoPages := bytes.Repeat([]byte{2}, int(pageSize)), bytes.Repeat([]byte{3}, 2*int(pageSize))
	tableBytes := int64(8) * 24 // a page table of up to 8 entries
	for _, c := range []struct {
		name   string
		op     func(n *Node)
		budget int64 // bytes per op
	}{
		{"append 4 KiB", func(n *Node) { n.WriteAt(size, page) }, pageSize + tableBytes},
		{"overwrite the middle 8 KiB", func(n *Node) { n.WriteAt(pageSize, twoPages) }, pageSize + tableBytes},
		{"overwrite 8 KiB off the page grid", func(n *Node) { n.WriteAt(pageSize+100, twoPages) }, 2*pageSize + tableBytes},
		{"grow to 24 KiB", func(n *Node) { n.Resize(size + 2*pageSize) }, tableBytes},
		{"falloc to 24 KiB", func(n *Node) { n.zero(size, size+2*pageSize) }, tableBytes},
	} {
		n := &Node{Kind: filesys.KindRegular, Data: base}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			n.Data = base
			c.op(n)
		}
		runtime.ReadMemStats(&after)
		mallocs := float64(after.Mallocs-before.Mallocs) / runs
		allocated := int64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.1f mallocs, %d bytes per op", c.name, mallocs, allocated)
		if mallocs > 3 || allocated > c.budget {
			t.Errorf("%s: %.1f mallocs and %d bytes per op, budget %d bytes: does it copy the whole file?",
				c.name, mallocs, allocated, c.budget)
		}
	}
}

// TestEncodeAllocatesNothing: Encode reuses its sorted inode list and
// EncodeNode its sorted names, so encoding a tree into an encoder with room
// allocates nothing, and every encoding of a tree is the same bytes.
func TestEncodeAllocatesNothing(t *testing.T) {
	tr := New()
	for i := range 20 {
		if _, err := tr.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Write("/f3", 100, []byte("data")); err != nil {
		t.Fatal(err)
	}
	e := codec.NewEncoder(1 << 16)
	tr.Encode(e)
	want := bytes.Clone(e.Bytes())
	if allocs := testing.AllocsPerRun(100, func() { e.Reset(); tr.Encode(e) }); allocs != 0 && !raceDetector {
		t.Errorf("Encode allocates %v times, want 0", allocs)
	}
	if !bytes.Equal(e.Bytes(), want) {
		t.Error("encoding the same tree twice gave different bytes")
	}
}

// patternedBytes returns n bytes that differ at every page and from seed to
// seed.
func patternedBytes(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i/4096)*13 + byte(i) + seed
	}
	return b
}

// checkPageTable fails t unless c keeps Content's shape: a page table only
// past one page, every page full but the last, every view capped at its
// length.
func checkPageTable(t *testing.T, what string, c Content) {
	t.Helper()
	if c.pages == nil {
		if cap(c.flat) != len(c.flat) {
			t.Fatalf("%s: flat content with spare capacity", what)
		}
		return
	}
	for i, p := range c.pages {
		if cap(p) != len(p) || i < len(c.pages)-1 && int64(len(p)) != pageSize || len(p) == 0 {
			t.Fatalf("%s: page %d of %d is %d bytes, cap %d", what, i, len(c.pages), len(p), cap(p))
		}
	}
}

// TestWriteContentMatchesWriteAt runs seeded WriteContent calls — of flat
// data, of the page store's pages and of a page-aligned slice of them, at
// aligned and unaligned offsets, over flat and paged files — against
// WriteAt of the same bytes: both must leave the same bytes, a well-formed
// page table and the source untouched, and WriteContent must keep every
// page of paged data that lands whole on a page of the file.
func TestWriteContentMatchesWriteAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 400 {
		size := rng.Int63n(5 * pageSize)
		base := patternedBytes(size, byte(i))
		file := Flat(base)
		if i%2 == 1 {
			file = internContent(base)
		}
		length := rng.Int63n(4*pageSize) + 1
		src := patternedBytes(length+pageSize, byte(i)+100)
		var data Content
		switch i % 3 {
		case 0:
			data = Flat(src[:length])
		case 1:
			data = internContent(src[:length])
		default:
			data = internContent(src).Slice(pageSize, pageSize+length)
		}
		want := data.Bytes()
		off := rng.Int63n(6 * pageSize)
		if i%4 < 2 {
			off &^= pageSize - 1
		}
		what := fmt.Sprintf("case %d: %d bytes at %d over %d", i, length, off, size)

		got, ref := &Node{Kind: filesys.KindRegular, Data: file}, &Node{Kind: filesys.KindRegular, Data: file}
		got.WriteContent(off, data)
		ref.WriteAt(off, bytes.Clone(want))
		if !bytes.Equal(got.Data.Bytes(), ref.Data.Bytes()) {
			t.Fatalf("%s: WriteContent and WriteAt disagree", what)
		}
		checkPageTable(t, what, got.Data)
		if !bytes.Equal(data.Bytes(), want) || !bytes.Equal(file.Bytes(), base) {
			t.Fatalf("%s: the write changed its source or the old content", what)
		}
		if data.pages == nil || off%pageSize != 0 || got.Data.pages == nil {
			continue
		}
		for j, p := range data.pages {
			lo := off + int64(j)*pageSize
			if int64(len(p)) == pageSize || lo+int64(len(p)) >= got.Data.Len() {
				if q := got.Data.pages[lo/pageSize]; &q[0] != &p[0] {
					t.Fatalf("%s: page %d of the data was copied, not kept", what, j)
				}
			}
		}
	}
}

// TestDecodeTakesHeldPages pins what decoding costs once the page store
// holds a file's pages: the node's content is those very pages, and the
// decode allocates the tree, the node and its page table, but no content
// bytes, where aliasing-free decoding without the store would copy the
// file.
func TestDecodeTakesHeldPages(t *testing.T) {
	const size = 16 * pageSize
	tr := New()
	if _, err := tr.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Write("/f", 0, patternedBytes(size, 7)); err != nil {
		t.Fatal(err)
	}
	e := codec.NewEncoder(0)
	tr.Encode(e)
	decode := func() *Node {
		t.Helper()
		got, err := DecodeTree(codec.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		n, err := got.Lookup("/f")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	first := decode()
	checkPageTable(t, "decoded", first.Data)
	if first.Data.Len() != size || !bytes.Equal(first.Data.Bytes(), patternedBytes(size, 7)) {
		t.Fatal("decoded content differs")
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		again := decode()
		for i, p := range again.Data.pages {
			if &p[0] != &first.Data.pages[i][0] {
				t.Fatalf("page %d was copied again, not taken from the store", i)
			}
		}
	}
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("decode of a tree with a held %d-byte file: %d bytes", size, allocated)
	if allocated >= pageSize {
		t.Errorf("decoding a tree whose pages are held allocates %d bytes, want under one page", allocated)
	}
}
