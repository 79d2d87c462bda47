// Fixture for the nodeedit analyzer: a tree's clones share its nodes until
// one writes them, so a node taken from Get, Lookup, Root or a walk is
// read-only and a writer takes it from Edit.
package nodeedit

// Node mirrors fstree.Node's shape.
type Node struct {
	Ino      uint64
	Nlink    int
	Data     []byte
	Xattrs   map[string][]byte
	Children map[string]uint64
}

func (n *Node) WriteAt(off int64, data []byte) { n.Data = append(n.Data[:off:off], data...) }
func (n *Node) WriteContent(off int64, data []byte) {
	n.Data = append(n.Data[:off:off], data...)
}
func (n *Node) Resize(size int64)           { n.Data = n.Data[:size:size] }
func (n *Node) AllocRange(off, end int64)   {}
func (n *Node) DeallocRange(off, end int64) {}
func (n *Node) Size() int64                 { return int64(len(n.Data)) }
func (n *Node) Clone() *Node                { c := *n; return &c }

// Tree mirrors fstree.Tree's readers, walkers and Edit.
type Tree struct{ nodes map[uint64]*Node }

func (t *Tree) Get(ino uint64) *Node                  { return t.nodes[ino] }
func (t *Tree) Root() *Node                           { return t.nodes[1] }
func (t *Tree) Lookup(path string) (*Node, error)     { return t.nodes[1], nil }
func (t *Tree) Edit(ino uint64) *Node                 { return t.nodes[ino] }
func (t *Tree) Walk(fn func(path string, n *Node))    {}
func (t *Tree) WalkNodes(fn func(n *Node))            {}
func (t *Tree) Children(ino uint64) map[string]uint64 { return nil }

// Record has the same fields but is not a Node: writes are fine.
type Record struct{ Nlink int }

func (r *Record) Resize(int64) {}

func fieldStores(t *Tree) {
	n := t.Get(2)
	n.Nlink = 3                // want "write to a node taken for reading"
	n.Nlink++                  // want "write to a node taken for reading"
	n.Nlink += 2               // want "write to a node taken for reading"
	n.Children["a"] = 4        // want "write to a node taken for reading"
	n.Xattrs = nil             // want "write to a node taken for reading"
	t.Root().Nlink = 2         // want "write to a node taken for reading"
	t.Get(3).Children["b"] = 5 // want "write to a node taken for reading"
	(t.Get(3)).Nlink = 1       // want "write to a node taken for reading"
	delete(n.Children, "a")    // want "delete on a node taken for reading"
	clear(t.Root().Xattrs)     // want "clear on a node taken for reading"
	n.WriteAt(0, []byte("x"))  // want "WriteAt on a node taken for reading"
	n.WriteContent(0, nil)     // want "WriteContent on a node taken for reading"
	n.Resize(1)                // want "Resize on a node taken for reading"
	t.Get(2).AllocRange(0, 1)  // want "AllocRange on a node taken for reading"
	n.DeallocRange(0, 1)       // want "DeallocRange on a node taken for reading"
	m, err := t.Lookup("/f")
	m.Nlink = 0 // want "write to a node taken for reading"
	_ = err
	var v = t.Get(4)
	v.Nlink = 1 // want "write to a node taken for reading"
}

func walks(t *Tree) {
	t.Walk(func(path string, n *Node) {
		n.Nlink = 1 // want "write to a node taken for reading"
	})
	t.WalkNodes(func(n *Node) {
		delete(n.Children, "x") // want "delete on a node taken for reading"
		e := t.Edit(n.Ino)
		e.Nlink = 2 // fine: Edit's copy
	})
}

func allowed(t *Tree, r *Record, fresh *Node) int64 {
	n := t.Get(2)
	size := n.Size() // reading: fine
	if n.Nlink > 1 { // reading: fine
		size++
	}
	n = t.Edit(2)
	n.Nlink = 3 // rebound from Edit: fine
	t.Edit(3).Children["a"] = 1
	delete(t.Edit(3).Children, "a")
	c := t.Get(4).Clone()
	c.Nlink = 0 // a clone is the caller's own: fine
	fresh.Nlink = 1
	r.Nlink = 2 // not a Node: fine
	r.Resize(1)
	t.Children(1)["x"] = 2 // not a Node field: fine
	x, _ := t.Lookup("/x")
	x = &Node{}
	x.Nlink = 5 // rebound to a fresh node: fine
	return size
}

func allowedWrite(t *Tree) {
	n := t.Get(2)
	//lint:allow nodeedit the tree was built here and never cloned (fixture)
	n.Nlink = 1
}
