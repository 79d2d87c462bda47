package analysis

import (
	"go/ast"
	"go/types"
)

// SharedContent reports in-place writes to fstree.Content's bytes, to the
// page views Content hands out, and to the content MountedFS.ReadFile
// hands out.
//
// A regular file's content is shared once installed: Tree.Clone, tracker
// snapshots and pinned ranges share a Content and its pages, decoded images
// and log records take their pages from the process-wide page store, which
// hands one copy of each distinct page to every decode and every verified
// payload that holds it (fstree.DecodeContent, package pagestore), a write
// adopts the caller's buffer or content, whole or page by page
// (Node.WriteAt, Node.WriteContent), and zero ranges are views of one
// process-wide zero page.
// That is only sound while no byte handed out is ever written through, so
// every change builds new pages and a new page table instead. A store
// through a slice field of a Content (an index assignment, copy into it,
// append onto it, clear of it), or through a view a Content method returns
// (Bytes) or yields (the variable of a range over Pages), silently changes
// every clone, snapshot and expectation sharing the bytes; the oracle then
// agrees with whatever the file system recovered and the bug goes
// unreported.
//
// ReadFile returns the content itself, so a local variable bound from a
// call to a method named ReadFile that returns ([]byte, error) holds shared
// content too, and so does one bound from a page store's Intern (a method
// named Intern of a type named Store returning ([]byte, bool)), whose chunk
// every payload and page equal to it shares. For views, ReadFile results
// and chunks an index store, copy into or clear of one (or of a slice of
// one) is reported; an append onto one is
// not: its capacity equals its length, so an append copies. os.ReadFile is
// a function, not a method, and is exempt.
//
// Matching is by name and shape — slice fields and []byte-returning
// methods of a struct type named Content, a method named ReadFile — so
// fixtures are covered by convention. Aliases through another local
// variable (d := v; d[0] = 1) are not tracked.
var SharedContent = &Analyzer{
	Name: "sharedcontent",
	Doc: "report in-place writes to fstree.Content's bytes and page table " +
		"(index stores, copy, append, clear), to the views Content methods " +
		"return or yield, to ReadFile results and to page-store chunks " +
		"(index stores, copy, clear); file content is shared by clones, " +
		"snapshots, decoded images, verified payloads and readers",
	Run: runSharedContent,
}

func isByteSlice(t types.Type) bool {
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

// isContent reports whether t, or what it points to, is a named type
// called Content.
func isContent(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Content"
}

// isContentBytes reports whether e, after stripping parens, slicing and
// indexing, selects a slice field of a Content: its flat bytes or its page
// table.
func isContentBytes(info *types.Info, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			s, ok := info.Selections[x]
			if !ok || s.Kind() != types.FieldVal || !isContent(s.Recv()) {
				return false
			}
			_, isSlice := s.Obj().Type().Underlying().(*types.Slice)
			return isSlice
		default:
			return false
		}
	}
}

// methodCall returns the selector and signature of the method e calls, or
// nils when e calls no method.
func methodCall(info *types.Info, e ast.Expr) (*ast.SelectorExpr, *types.Signature) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, nil
	}
	return sel, s.Type().(*types.Signature)
}

// isReadFileCall reports whether e calls a method named ReadFile that
// returns ([]byte, error).
func isReadFileCall(info *types.Info, e ast.Expr) bool {
	sel, sig := methodCall(info, e)
	if sig == nil || sel.Sel.Name != "ReadFile" {
		return false
	}
	res := sig.Results()
	return res.Len() == 2 && isByteSlice(res.At(0).Type()) &&
		types.Identical(res.At(1).Type(), types.Universe.Lookup("error").Type())
}

// isInternCall reports whether e calls a method named Intern of a type
// named Store that returns ([]byte, bool): a page-store chunk.
func isInternCall(info *types.Info, e ast.Expr) bool {
	sel, sig := methodCall(info, e)
	if sig == nil || sel.Sel.Name != "Intern" {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	res := sig.Results()
	return ok && named.Obj().Name() == "Store" && res.Len() == 2 && isByteSlice(res.At(0).Type()) &&
		types.Identical(res.At(1).Type(), types.Typ[types.Bool])
}

// isContentViewCall reports whether e calls a method of a Content that
// returns []byte.
func isContentViewCall(info *types.Info, e ast.Expr) bool {
	_, sig := methodCall(info, e)
	return sig != nil && isContent(sig.Recv().Type()) &&
		sig.Results().Len() == 1 && isByteSlice(sig.Results().At(0).Type())
}

// isPagesCall reports whether e calls a method of a Content that returns
// an iterator of []byte (a func(yield func([]byte) bool)).
func isPagesCall(info *types.Info, e ast.Expr) bool {
	_, sig := methodCall(info, e)
	if sig == nil || !isContent(sig.Recv().Type()) || sig.Results().Len() != 1 {
		return false
	}
	seq, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	if !ok || seq.Params().Len() != 1 {
		return false
	}
	yield, ok := seq.Params().At(0).Type().Underlying().(*types.Signature)
	return ok && yield.Params().Len() == 1 && isByteSlice(yield.Params().At(0).Type())
}

// Sources of shared bytes a local variable may be bound from.
const (
	fromReadFile = "a ReadFile result"
	fromView     = "a Content view"
	fromChunk    = "a page-store chunk"
)

// sharedLocals returns the local variables bound from a ReadFile call, a
// page store's Intern or a Content view — by assignment, declaration or
// ranging over Pages — each with the source it holds.
func sharedLocals(pass *Pass) map[*types.Var]string {
	info := pass.Pkg.Info
	bound := map[*types.Var]string{}
	bind := func(e ast.Expr, from string) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
			bound[v] = from
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				switch {
				case len(n.Lhs) == 2 && len(n.Rhs) == 1 && isReadFileCall(info, n.Rhs[0]):
					bind(n.Lhs[0], fromReadFile)
				case len(n.Lhs) == 2 && len(n.Rhs) == 1 && isInternCall(info, n.Rhs[0]):
					bind(n.Lhs[0], fromChunk)
				case len(n.Lhs) == len(n.Rhs):
					for i, rhs := range n.Rhs {
						if isContentViewCall(info, rhs) {
							bind(n.Lhs[i], fromView)
						}
					}
				}
			case *ast.ValueSpec:
				switch {
				case len(n.Names) == 2 && len(n.Values) == 1 && isReadFileCall(info, n.Values[0]):
					bind(n.Names[0], fromReadFile)
				case len(n.Names) == 2 && len(n.Values) == 1 && isInternCall(info, n.Values[0]):
					bind(n.Names[0], fromChunk)
				case len(n.Names) == len(n.Values):
					for i, v := range n.Values {
						if isContentViewCall(info, v) {
							bind(n.Names[i], fromView)
						}
					}
				}
			case *ast.RangeStmt:
				if n.Key != nil && isPagesCall(info, n.X) {
					bind(n.Key, fromView)
				}
			}
			return true
		})
	}
	return bound
}

func runSharedContent(pass *Pass) error {
	const (
		contentFix = "file content is shared, build new pages and a new page table"
		viewFix    = "file content is shared, copy it before writing"
	)
	info := pass.Pkg.Info
	bound := sharedLocals(pass)
	// sharedSource names the shared bytes e holds, after stripping parens
	// and slicing: a bound variable's source, or a direct view call's.
	sharedSource := func(e ast.Expr) string {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SliceExpr:
				e = x.X
			case *ast.Ident:
				v, _ := info.Uses[x].(*types.Var)
				return bound[v]
			case *ast.CallExpr:
				if isContentViewCall(info, x) {
					return fromView
				}
				return ""
			default:
				return ""
			}
		}
	}
	store := func(e ast.Expr) {
		idx, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok {
			return
		}
		if isContentBytes(info, idx.X) {
			pass.Reportf(e.Pos(), "store into Content's shared bytes; %s", contentFix)
		} else if from := sharedSource(idx.X); from != "" {
			pass.Reportf(e.Pos(), "store into %s; %s", from, viewFix)
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					store(lhs)
				}
			case *ast.IncDecStmt:
				store(n.X)
			case *ast.CallExpr:
				for _, name := range []string{"copy", "append", "clear"} {
					if !isBuiltin(info, n, name) || len(n.Args) == 0 {
						continue
					}
					arg := n.Args[0]
					if isContentBytes(info, arg) {
						pass.Reportf(n.Pos(), "%s writes into Content's shared bytes; %s", name, contentFix)
					} else if from := sharedSource(arg); from != "" && name != "append" {
						pass.Reportf(n.Pos(), "%s writes into %s; %s", name, from, viewFix)
					}
				}
			}
			return true
		})
	}
	return nil
}
