package fstree

import (
	"bytes"
	"iter"
	"slices"

	"b3/internal/blockdev"
	"b3/internal/codec"
	"b3/internal/pagestore"
)

// pageSize is the unit in which file content is shared and copied: a device
// block, and the page store's page.
const pageSize = int64(blockdev.BlockSize)

// The page store's pages are file-content pages.
var _ [pagestore.PageSize - pageSize]struct{}
var _ [pageSize - pagestore.PageSize]struct{}

// Content is a regular file's bytes. It is immutable once built: clones,
// tracker snapshots and decoded images share it, and every change (WriteAt,
// WriteContent, Resize, Falloc, Truncate) builds a new Content that shares
// the bytes it leaves alone with the old one.
//
// Content installed in one piece (a covering write, Flat), no longer than
// one page, or only zeros that fit the zero page is one flat slice, read
// without a copy. Decoded content longer than a page, and any other change,
// is paged: a table of views, page i holding bytes [i*pageSize,
// (i+1)*pageSize), every page full but the last. A change copies only the
// pages it changes in part, adopts whole pages of the caller's data, keeps
// the other pages, and makes zero pages views of the zero page.
type Content struct {
	flat  []byte   // all the bytes, when pages is nil; cap == len
	pages [][]byte // otherwise, the page table; every page has cap == len
}

// Flat returns b as one flat content, without a copy: b is never modified
// but is kept, so the caller must never modify it afterwards.
func Flat(b []byte) Content {
	if len(b) == 0 {
		return Content{}
	}
	return Content{flat: b[:len(b):len(b)]}
}

// Len returns the number of bytes.
func (c Content) Len() int64 {
	if c.pages == nil {
		return int64(len(c.flat))
	}
	last := len(c.pages) - 1
	return int64(last)*pageSize + int64(len(c.pages[last]))
}

// Bytes returns the content as one slice: the flat slice itself, which must
// not be modified, or for paged content a gathered copy.
func (c Content) Bytes() []byte {
	if c.pages == nil {
		return c.flat
	}
	out := make([]byte, 0, c.Len())
	for _, p := range c.pages {
		out = append(out, p...)
	}
	return out
}

// Pages yields the content in order, as views that must not be modified:
// the flat slice in one piece, or one page at a time. Every piece but the
// last is a multiple of pageSize long.
func (c Content) Pages() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		if c.pages == nil {
			if len(c.flat) > 0 {
				yield(c.flat)
			}
			return
		}
		for _, p := range c.pages {
			if !yield(p) {
				return
			}
		}
	}
}

// Slice returns bytes [off, end) as content of their own, sharing c's bytes:
// a slice of flat content or of one page, or, from a page boundary, c's
// pages. Only a range that starts inside a page and spans pages is copied.
func (c Content) Slice(off, end int64) Content {
	if end <= off {
		return Content{}
	}
	if c.pages == nil {
		return Flat(c.flat[off:end])
	}
	first, last := off/pageSize, (end-1)/pageSize
	if first == last {
		base := first * pageSize
		return Flat(c.pages[first][off-base : end-base])
	}
	if off%pageSize != 0 {
		out := make([]byte, 0, end-off)
		for i := first; i <= last; i++ {
			base := i * pageSize
			p := c.pages[i]
			out = append(out, p[max(off-base, 0):min(end-base, int64(len(p)))]...)
		}
		return Flat(out)
	}
	pages := slices.Clone(c.pages[first : last+1])
	tail := end - last*pageSize
	pages[len(pages)-1] = pages[len(pages)-1][:tail:tail]
	return Content{pages: pages}
}

// Equal reports whether c and o hold the same bytes. Pages the two share
// are not compared.
func (c Content) Equal(o Content) bool {
	if c.Len() != o.Len() {
		return false
	}
	if c.pages == nil && o.pages == nil {
		return bytes.Equal(c.flat, o.flat)
	}
	for i := range c.numPages() {
		a, b := c.page(i), o.page(i)
		if &a[0] != &b[0] && !bytes.Equal(a, b) {
			return false
		}
	}
	return true
}

// Encode writes the content as codec.Encoder.Bytes64 writes its bytes.
func (c Content) Encode(e *codec.Encoder) {
	e.Uint64(uint64(c.Len()))
	for p := range c.Pages() {
		e.Raw(p)
	}
}

// DecodeContent reads content written by Encode, or bytes written by
// codec.Encoder.Bytes64, as pages of the process-wide page store
// (pagestore.Shared): one flat page when it fits one, else a page table. It
// never aliases d's buffer, and copies only pages the store does not hold.
func DecodeContent(d *codec.Decoder) Content { return internContent(d.Bytes64View()) }

// internContent returns b's bytes as content made of the page store's
// pages; b is not retained.
func internContent(b []byte) Content {
	store := pagestore.Shared()
	if int64(len(b)) <= pageSize {
		p, _ := store.Intern(b)
		return Content{flat: p}
	}
	pages := make([][]byte, pagestore.Chunks(len(b)))
	store.InternAll(pages, b)
	return Content{pages: pages}
}

// numPages returns the number of pages the content spans.
func (c Content) numPages() int {
	if c.pages != nil {
		return len(c.pages)
	}
	return int((int64(len(c.flat)) + pageSize - 1) / pageSize)
}

// page returns page i as a view, whichever form c has; a page of a flat
// zero view is a view of the zero page's start, like every zero page.
func (c Content) page(i int) []byte {
	if c.pages != nil {
		return c.pages[i]
	}
	lo := int64(i) * pageSize
	hi := min(lo+pageSize, int64(len(c.flat)))
	if isZeroView(c.flat) {
		return zeroView(hi - lo)
	}
	return c.flat[lo:hi:hi]
}

// isZero reports whether c is a flat view of the zero page.
func (c Content) isZero() bool { return c.pages == nil && isZeroView(c.flat) }

// zeroPage backs Zeros and every zero range of file content; it is never
// written. It is larger than any file ACE's dependency model holds
// (DepFileSize + 8192 bytes), so that model's files stay flat zero views.
var zeroPage [64 << 10]byte

// zeroView returns n zero bytes of the zero page, from its start.
func zeroView(n int64) []byte { return zeroPage[:n:n] }

// isZeroView reports whether b holds only zero-page bytes: it is empty or
// starts at the zero page, as every slice Zeros and zeroView make of it
// does.
func isZeroView(b []byte) bool { return len(b) == 0 || &b[0] == &zeroPage[0] }

// Zeros returns n zero bytes with capacity n, for writes that only zero a
// range. Up to the zero page's size the slice is a zero view, shared by
// every caller and every file content built from it, and must not be
// modified; longer ones are allocated.
func Zeros(n int64) []byte {
	if n > int64(len(zeroPage)) {
		return make([]byte, n)
	}
	return zeroView(n)
}

// splice returns c with bytes [off, end) replaced by data's bytes, or by
// zeros when zeroFill is set (data is then empty), and any gap past c's end
// zero-filled. Content that ends up no longer than a page, or covered by
// data, is flat or data itself; zeros over a flat zero view that fit the
// zero page stay a zero view; anything else is paged, and only pages partly
// changed, or that data does not hold as one view, are copied.
func (c Content) splice(off, end int64, data Content, zeroFill bool) Content {
	size := c.Len()
	newSize := max(end, size)
	zeros := zeroFill || data.isZero()
	switch {
	case off == 0 && end >= size && !zeroFill:
		return data
	case zeros && (c.isZero() || off == 0 && end >= size) && newSize <= int64(len(zeroPage)):
		return Content{flat: zeroView(newSize)}
	case newSize <= pageSize:
		fresh := make([]byte, newSize)
		copy(fresh, c.flat)
		if zeroFill {
			clear(fresh[off:end])
		} else {
			data.read(fresh[off:end], 0)
		}
		return Content{flat: fresh}
	}
	pages := make([][]byte, (newSize+pageSize-1)/pageSize)
	for i := range pages {
		lo := int64(i) * pageSize
		hi := min(lo+pageSize, newSize)
		untouched := hi <= off || lo >= end
		covered := off <= lo && hi <= end
		switch {
		case untouched && hi <= size:
			pages[i] = c.page(i)
			continue
		case untouched && lo >= size, zeros && covered:
			pages[i] = zeroView(hi - lo)
			continue
		case covered:
			if v, ok := data.view(lo-off, hi-off); ok {
				pages[i] = v
				continue
			}
		}
		var old []byte
		if lo < size {
			old = c.page(i)
		}
		if zeros && isZeroView(old) {
			pages[i] = zeroView(hi - lo)
			continue
		}
		fresh := make([]byte, hi-lo)
		copy(fresh, old)
		switch from, to := max(off, lo), min(end, hi); {
		case from >= to:
			// Untouched: the old end's page, zero-extended.
		case zeroFill:
			clear(fresh[from-lo : to-lo])
		default:
			data.read(fresh[from-lo:to-lo], from-off)
		}
		pages[i] = fresh
	}
	return Content{pages: pages}
}

// view returns bytes [from, to) of c as one view, with capacity equal to
// its length, when they lie in the flat slice or in one page.
func (c Content) view(from, to int64) ([]byte, bool) {
	if c.pages == nil {
		return c.flat[from:to:to], true
	}
	i := from / pageSize
	if (to-1)/pageSize != i {
		return nil, false
	}
	base := i * pageSize
	return c.pages[i][from-base : to-base : to-base], true
}

// read copies bytes [from, from+len(dst)) of c into dst.
func (c Content) read(dst []byte, from int64) {
	if c.pages == nil {
		copy(dst, c.flat[from:])
		return
	}
	for len(dst) > 0 {
		n := copy(dst, c.pages[from/pageSize][from%pageSize:])
		dst, from = dst[n:], from+int64(n)
	}
}

// resize returns c cut or zero-extended to size. Cutting shares every page
// it keeps (see Slice).
func (c Content) resize(size int64) Content {
	switch old := c.Len(); {
	case size == old:
		return c
	case size > old:
		return c.splice(old, size, Content{}, true)
	}
	return c.Slice(0, size)
}
