package fstree

import (
	"bytes"
	"iter"
	"slices"

	"b3/internal/blockdev"
	"b3/internal/codec"
)

// pageSize is the unit in which file content is shared and copied.
const pageSize = int64(blockdev.BlockSize)

// Content is a regular file's bytes. It is immutable once built: clones,
// tracker snapshots and decoded images share it, and every change (WriteAt,
// Resize, Falloc, Truncate) builds a new Content that shares the bytes it
// leaves alone with the old one.
//
// Content installed in one piece (a decoded payload, a covering write,
// Flat), no longer than one page, or only zeros that fit the zero page is
// one flat slice, read without a copy. Any other change makes it paged: a
// table of views, page i holding bytes [i*pageSize, (i+1)*pageSize), every
// page full but the last. A change copies only the pages it changes in
// part, adopts whole pages of the caller's data, keeps the other pages, and
// makes zero pages views of the zero page.
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

// splice returns c with bytes [off, end) replaced by data, or by zeros when
// data is nil, and any gap past c's end zero-filled. Content that ends up
// no longer than a page, or covered by data, is flat; zeros over a flat
// zero view that fit the zero page stay a zero view; anything else is
// paged, and only pages partly changed are copied.
func (c Content) splice(off, end int64, data []byte) Content {
	size := c.Len()
	newSize := max(end, size)
	zeros := data == nil || isZeroView(data)
	switch {
	case off == 0 && end >= size && data != nil:
		return Flat(data)
	case zeros && (c.isZero() || off == 0 && end >= size) && newSize <= int64(len(zeroPage)):
		return Content{flat: zeroView(newSize)}
	case newSize <= pageSize:
		fresh := make([]byte, newSize)
		copy(fresh, c.flat)
		if data != nil {
			copy(fresh[off:], data)
		} else {
			clear(fresh[off:end])
		}
		return Content{flat: fresh}
	}
	pages := make([][]byte, (newSize+pageSize-1)/pageSize)
	for i := range pages {
		lo := int64(i) * pageSize
		hi := min(lo+pageSize, newSize)
		untouched := hi <= off || lo >= end
		switch {
		case untouched && hi <= size:
			pages[i] = c.page(i)
		case untouched && lo >= size, zeros && off <= lo && hi <= end:
			pages[i] = zeroView(hi - lo)
		case off <= lo && hi <= end:
			pages[i] = data[lo-off : hi-off : hi-off]
		default:
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
			case data != nil:
				copy(fresh[from-lo:to-lo], data[from-off:])
			default:
				clear(fresh[from-lo : to-lo])
			}
			pages[i] = fresh
		}
	}
	return Content{pages: pages}
}

// resize returns c cut or zero-extended to size. Cutting shares every page
// it keeps (see Slice).
func (c Content) resize(size int64) Content {
	switch old := c.Len(); {
	case size == old:
		return c
	case size > old:
		return c.splice(old, size, nil)
	}
	return c.Slice(0, size)
}
