// Fixture for the sharedcontent analyzer: a Content's bytes and page table
// are shared by clones and snapshots, and so are the views its methods hand
// out and the content ReadFile hands out, so none may be written through.
package sharedcontent

import (
	"bytes"
	"iter"
	"os"
)

// Content mirrors fstree.Content's shape.
type Content struct {
	flat  []byte
	pages [][]byte
	size  int64
}

// Bytes hands out a view.
func (c Content) Bytes() []byte { return c.flat }

// Pages yields views.
func (c Content) Pages() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		for _, p := range c.pages {
			if !yield(p) {
				return
			}
		}
	}
}

// Len returns no view.
func (c Content) Len() int64 { return c.size }

// Node mirrors fstree.Node's shape.
type Node struct {
	Data Content
}

// Record has slice fields too, but is not a Content: writes are fine.
type Record struct {
	Data  []byte
	pages [][]byte
}

// Bytes of a Record is not a Content view.
func (r Record) Bytes() []byte { return r.Data }

// splice builds fresh pages and a fresh table: fine.
func (c Content) splice(off int, data []byte) Content {
	fresh := make([]byte, len(c.flat))
	copy(fresh, c.flat)
	copy(fresh[off:], data)
	pages := make([][]byte, 2)
	pages[0] = fresh
	pages[1] = c.pages[1]
	return Content{pages: pages}
}

func contentStores(c Content, n *Node, src []byte) {
	c.flat[0] = 1                       // want "store into Content's shared bytes"
	c.flat[1] += 2                      // want "store into Content's shared bytes"
	n.Data.flat[2]++                    // want "store into Content's shared bytes"
	c.pages[1][2] = 3                   // want "store into Content's shared bytes"
	(n.Data.pages)[0][1] = 4            // want "store into Content's shared bytes"
	c.pages[0] = src                    // want "store into Content's shared bytes"
	c.pages[1:][0] = src                // want "store into Content's shared bytes"
	copy(c.flat, src)                   // want "copy writes into Content's shared bytes"
	copy(n.Data.pages[1][4:8], src)     // want "copy writes into Content's shared bytes"
	c.flat = append(c.flat, 1)          // want "append writes into Content's shared bytes"
	_ = append(c.pages, src)            // want "append writes into Content's shared bytes"
	clear(c.flat)                       // want "clear writes into Content's shared bytes"
	clear(n.Data.pages[0][1:3])         // want "clear writes into Content's shared bytes"
	literal := func() { c.flat[0] = 0 } // want "store into Content's shared bytes"
	literal()
}

var pkgLevel = func(c Content) { copy(c.flat, "x") } // want "copy writes into Content's shared bytes"

func viewStores(n *Node, src []byte) {
	b := n.Data.Bytes()
	b[0] = 1                  // want "store into a Content view"
	b[1]++                    // want "store into a Content view"
	b[2:][0] = 3              // want "store into a Content view"
	copy(b[4:8], src)         // want "copy writes into a Content view"
	clear(b)                  // want "clear writes into a Content view"
	n.Data.Bytes()[0] = 1     // want "store into a Content view"
	copy(n.Data.Bytes(), src) // want "copy writes into a Content view"
	var v = n.Data.Bytes()
	v[0] = 2 // want "store into a Content view"
	for p := range n.Data.Pages() {
		p[0] = 1        // want "store into a Content view"
		copy(p, src)    // want "copy writes into a Content view"
		clear((p)[1:3]) // want "clear writes into a Content view"
	}
}

func allowed(n *Node, r *Record, src []byte) []byte {
	fresh := append([]byte(nil), n.Data.Bytes()...) // copying out: fine
	fresh[0] = 1
	copy(src, n.Data.Bytes())          // reading: fine
	grown := append(n.Data.Bytes(), 9) // cap == len, so append copies
	for p := range n.Data.Pages() {
		copy(src, p) // reading: fine
		grown = append(p, 9)
	}
	r.Data[0] = 1 // not a Content: fine
	r.pages[0] = src
	r.Bytes()[0] = 1
	copy(r.Data, src)
	n.Data = Content{flat: fresh} // installing new content: fine
	//lint:allow sharedcontent the fixture pins the escape hatch
	n.Data.flat[0] = 2
	return grown
}

// FS mirrors filesys.MountedFS's ReadFile, which returns shared content.
type FS interface {
	ReadFile(path string) ([]byte, error)
}

// mount implements FS with a concrete method.
type mount struct{ n *Node }

func (m mount) ReadFile(path string) ([]byte, error) { return m.n.Data.Bytes(), nil }

// cache has a ReadFile method of another shape: its results are its own.
type cache struct{}

func (cache) ReadFile(path string) ([]byte, bool) { return make([]byte, 4), true }

func readFileStores(fs FS, m mount, src []byte) error {
	data, err := fs.ReadFile("/f")
	data[0] = 1          // want "store into a ReadFile result"
	data[1]++            // want "store into a ReadFile result"
	data[2:][0] = 3      // want "store into a ReadFile result"
	copy(data, src)      // want "copy writes into a ReadFile result"
	copy(data[4:8], src) // want "copy writes into a ReadFile result"
	clear((data)[1:3])   // want "clear writes into a ReadFile result"
	var got, _ = m.ReadFile("/g")
	got[0] = 1 // want "store into a ReadFile result"
	var again []byte
	again, err = fs.ReadFile("/h")
	clear(again) // want "clear writes into a ReadFile result"
	return err
}

func readFileAllowed(fs FS, c cache, src []byte) []byte {
	own, _ := os.ReadFile("/f") // a function, not a method: the caller owns it
	own[0] = 1
	kept, _ := c.ReadFile("/f") // not ([]byte, error)
	kept[0] = 1
	data, _ := fs.ReadFile("/f")
	copy(src, data)            // reading: fine
	data = append(data, 9)     // cap == len, so append copies
	fresh := bytes.Clone(data) // copying out: fine
	fresh[0] = 1
	//lint:allow sharedcontent the fixture pins the escape hatch
	data[0] = 2
	return data
}

// Store mirrors pagestore.Store's Intern: the chunk it returns is shared by
// every caller that interned equal bytes.
type Store struct{}

func (s *Store) Intern(b []byte) ([]byte, bool) { return b, false }

// pool has an Intern of another shape: its result is its own.
type pool struct{}

func (pool) Intern(b []byte) []byte { return append([]byte(nil), b...) }

func chunkStores(s *Store, p pool, src []byte) [][]byte {
	c, _ := s.Intern(src)
	c[0] = 1      // want "store into a page-store chunk"
	copy(c, src)  // want "copy writes into a page-store chunk"
	clear(c[1:2]) // want "clear writes into a page-store chunk"
	var d, _ = s.Intern(src)
	d[0]++ // want "store into a page-store chunk"
	own := p.Intern(src)
	own[0] = 1 // not a Store: fine
	chunks := make([][]byte, 1)
	chunks[0] = c // keeping the chunk: fine
	return chunks
}
