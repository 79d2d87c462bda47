package analysis

import (
	"go/ast"
	"go/types"
)

// SharedContent reports in-place writes to fstree.Node.Data.
//
// A regular file's content is copied once and then shared: Tree.Clone,
// tracker snapshots and pinned ranges alias the same Data slice, and a
// decoded image's nodes alias the payload read from the device
// (fstree.DecodeNode). That is only sound while no slice handed out is ever
// written through, so every mutator installs a fresh slice instead —
// Node.WriteAt and Node.Resize are the two places allowed to build one. A
// store through x.Data (an index assignment, copy into it, append onto it,
// clear of it) silently changes every clone, snapshot and expectation
// sharing the bytes; the oracle then agrees with whatever the file system
// recovered and the bug goes unreported.
//
// Matching is by name and shape — a []byte field named Data of a struct type
// named Node — so fixtures are covered by convention. Aliases through a
// local variable (d := x.Data; d[0] = 1) are not tracked.
var SharedContent = &Analyzer{
	Name: "sharedcontent",
	Doc: "report in-place writes to fstree.Node.Data (index stores, copy, " +
		"append, clear) outside Node.WriteAt and Node.Resize; file content " +
		"is shared by clones, snapshots and decoded images",
	Run: runSharedContent,
}

// sharedContentWriters are the Node methods that may build Data in place.
var sharedContentWriters = map[string]bool{"WriteAt": true, "Resize": true}

// isNodeData reports whether e, after stripping parens and slicing, selects
// the Data field of a Node.
func isNodeData(info *types.Info, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			s, ok := info.Selections[x]
			if !ok || s.Kind() != types.FieldVal || x.Sel.Name != "Data" {
				return false
			}
			recv := s.Recv()
			if p, ok := recv.Underlying().(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Name() != "Node" {
				return false
			}
			slice, ok := s.Obj().Type().Underlying().(*types.Slice)
			if !ok {
				return false
			}
			basic, ok := slice.Elem().Underlying().(*types.Basic)
			return ok && basic.Kind() == types.Byte
		default:
			return false
		}
	}
}

func runSharedContent(pass *Pass) error {
	const fix = "file content is shared, install a fresh slice with WriteAt or Resize"
	info := pass.Pkg.Info
	store := func(e ast.Expr) {
		if idx, ok := ast.Unparen(e).(*ast.IndexExpr); ok && isNodeData(info, idx.X) {
			pass.Reportf(e.Pos(), "store into Node.Data; %s", fix)
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && sharedContentWriters[fn.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						store(lhs)
					}
				case *ast.IncDecStmt:
					store(n.X)
				case *ast.CallExpr:
					for _, name := range []string{"copy", "append", "clear"} {
						if isBuiltin(info, n, name) && len(n.Args) > 0 && isNodeData(info, n.Args[0]) {
							pass.Reportf(n.Pos(), "%s writes into Node.Data; %s", name, fix)
						}
					}
				}
				return true
			})
		}
	}
	return nil
}
