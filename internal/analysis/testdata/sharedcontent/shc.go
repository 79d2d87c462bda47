// Fixture for the sharedcontent analyzer: Node.Data is shared by clones and
// snapshots, so only WriteAt and Resize may build it in place.
package sharedcontent

// Node mirrors fstree.Node's shape.
type Node struct {
	Data []byte
}

// Record has a Data field too, but is not a Node: writes are fine.
type Record struct {
	Data []byte
}

// WriteAt is exempt: it writes into the fresh slice it installs.
func (n *Node) WriteAt(off int, data []byte) {
	fresh := make([]byte, max(off+len(data), len(n.Data)))
	copy(fresh, n.Data)
	n.Data = fresh
	copy(n.Data[off:], data)
}

// Resize is exempt too.
func (n *Node) Resize(size int) {
	n.Data = append(n.Data, make([]byte, size)...)
	clear(n.Data[size:])
}

func indexStore(n *Node) {
	n.Data[0] = 1     // want "store into Node.Data"
	n.Data[1] += 2    // want "store into Node.Data"
	n.Data[2]++       // want "store into Node.Data"
	(n.Data)[3] = 4   // want "store into Node.Data"
	n.Data[1:][0] = 5 // want "store into Node.Data"
}

func builtins(n *Node, src []byte) {
	copy(n.Data, src)                   // want "copy writes into Node.Data"
	copy(n.Data[4:8], src)              // want "copy writes into Node.Data"
	n.Data = append(n.Data, 1)          // want "append writes into Node.Data"
	_ = append(n.Data[:2], 9)           // want "append writes into Node.Data"
	clear(n.Data)                       // want "clear writes into Node.Data"
	clear(n.Data[1:3])                  // want "clear writes into Node.Data"
	literal := func() { n.Data[0] = 0 } // want "store into Node.Data"
	literal()
}

var pkgLevel = func(n Node) { copy(n.Data, "x") } // want "copy writes into Node.Data"

func allowed(n *Node, r *Record, src []byte) []byte {
	fresh := append([]byte(nil), n.Data...) // copying out: fine
	fresh[0] = 1
	copy(src, n.Data) // reading: fine
	r.Data[0] = 1     // not a Node: fine
	copy(r.Data, src)
	n.Data = fresh // installing a fresh slice: fine
	//lint:allow sharedcontent the fixture pins the escape hatch
	n.Data[0] = 2
	return n.Data[1:2]
}
