package analysis

import (
	"go/ast"
	"go/types"
)

// NodeEdit reports writes to a tree node taken for reading.
//
// fstree.Tree.Clone copies only the inode table: a clone shares every node
// with its source until one of them writes it, and the trees the
// decoded-value memo publishes are shared by every mount and goroutine.
// So a node from Get, Lookup or Root, or handed to a Walk or WalkNodes
// callback, is read-only; a caller that writes one takes it from Edit, which
// installs the tree's own copy first. A write through a read-only node
// changes every clone, snapshot and decoded image sharing it — the oracle's
// expectations or another mount's recovered state — and the tree that was
// meant to change may not even be the one that does.
//
// A write is a field assignment (x.Nlink = 2, x.Nlink++), a map store,
// delete or clear on a field (x.Children[k] = v, delete(x.Xattrs, k)), or a
// call of a Node method that writes the node (WriteAt, WriteContent,
// Resize, AllocRange, DeallocRange), where x is such a call itself or a local variable last
// bound, in source order, from one. Binding the variable from anything else
// (Edit, Clone) makes it writable again. Package fstree, which implements
// the copying, is exempt.
//
// Matching is by name and shape — a method named Get, Lookup or Root of a
// type named Tree whose first result is a pointer to a type named Node —
// so fixtures are covered by convention. Source order stands in for
// control flow, and aliases through another variable or a closure's
// capture are not tracked.
var NodeEdit = &Analyzer{
	Name: "nodeedit",
	Doc: "report writes (field stores, map writes, WriteAt/WriteContent/Resize/" +
		"AllocRange/DeallocRange) to a tree node taken from Get, Lookup, Root or a Walk " +
		"callback instead of Edit, outside package fstree; clones and decoded " +
		"images share nodes until written",
	Run: runNodeEdit,
}

// nodeReaders are the Tree methods whose node results are read-only.
var nodeReaders = map[string]bool{"Get": true, "Lookup": true, "Root": true}

// nodeWalkers are the Tree methods whose callbacks get read-only nodes.
var nodeWalkers = map[string]bool{"Walk": true, "WalkNodes": true}

// nodeWriters are the Node methods that write the node.
var nodeWriters = map[string]bool{"WriteAt": true, "WriteContent": true, "Resize": true, "AllocRange": true, "DeallocRange": true}

// isNamed reports whether t is, or points to, a type named name.
func isNamed(t types.Type, name string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// treeMethod returns the method of a type named Tree that call invokes, or
// nil.
func treeMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !isNamed(s.Recv(), "Tree") {
		return nil
	}
	fn, _ := s.Obj().(*types.Func)
	return fn
}

// isNodeRead reports whether e calls Get, Lookup or Root on a Tree for a
// node.
func isNodeRead(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := treeMethod(info, call)
	if fn == nil || !nodeReaders[fn.Name()] {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	return res.Len() > 0 && isNamed(res.At(0).Type(), "Node")
}

func runNodeEdit(pass *Pass) error {
	if pass.Pkg.Types.Name() == "fstree" {
		return nil
	}
	info := pass.Pkg.Info
	readOnly := map[*types.Var]bool{}
	varOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, _ := obj.(*types.Var)
		return v
	}
	// isReadNode reports whether e is a read-only node: a reader call or a
	// variable last bound from one.
	isReadNode := func(e ast.Expr) bool {
		if isNodeRead(info, e) {
			return true
		}
		v := varOf(e)
		return v != nil && readOnly[v]
	}
	// nodeField returns the expression whose Node field e selects, after
	// stripping parens and one map index, or nil.
	nodeField := func(e ast.Expr) ast.Expr {
		e = ast.Unparen(e)
		if idx, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(idx.X)
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal || !isNamed(s.Recv(), "Node") {
			return nil
		}
		return sel.X
	}
	const fix = "nodes are shared by clones and decoded images until written; take it from Edit"
	store := func(e ast.Expr) {
		if x := nodeField(e); x != nil && isReadNode(x) {
			pass.Reportf(e.Pos(), "write to a node taken for reading; %s", fix)
		}
	}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		if v := varOf(lhs); v != nil {
			readOnly[v] = rhs != nil && isNodeRead(info, rhs)
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					store(lhs)
				}
				switch {
				case len(n.Lhs) == len(n.Rhs):
					for i := range n.Lhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				case len(n.Rhs) == 1:
					// x, err := tree.Lookup(p) binds the node to x.
					bind(n.Lhs[0], n.Rhs[0])
					for _, lhs := range n.Lhs[1:] {
						bind(lhs, nil)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					var rhs ast.Expr
					if i < len(n.Values) {
						rhs = n.Values[i]
					}
					bind(name, rhs)
				}
			case *ast.IncDecStmt:
				store(n.X)
			case *ast.CallExpr:
				for _, name := range []string{"delete", "clear"} {
					if isBuiltin(info, n, name) && len(n.Args) > 0 {
						if x := nodeField(n.Args[0]); x != nil && isReadNode(x) {
							pass.Reportf(n.Pos(), "%s on a node taken for reading; %s", name, fix)
						}
					}
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && nodeWriters[sel.Sel.Name] {
					if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && isReadNode(sel.X) {
						pass.Reportf(n.Pos(), "%s on a node taken for reading; %s", sel.Sel.Name, fix)
					}
				}
				if fn := treeMethod(info, n); fn != nil && nodeWalkers[fn.Name()] {
					for _, arg := range n.Args {
						lit, ok := ast.Unparen(arg).(*ast.FuncLit)
						if !ok {
							continue
						}
						for _, field := range lit.Type.Params.List {
							for _, name := range field.Names {
								if v, ok := info.Defs[name].(*types.Var); ok && isNamed(v.Type(), "Node") {
									readOnly[v] = true
								}
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
