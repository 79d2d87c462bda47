package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// ReleaseCheck reports pooled values whose Release lifetime is broken.
//
// Snapshots, replay cursors, recorders, profiles, and the other
// sync.Pool-backed values hand their buffers back through Release() (or
// Recycle()); a value that is never released leaks pool capacity, and a
// value used after Release reads overlay or record memory the pool may
// already have lent to another state — the same silent-aliasing class
// borrowview guards against, one level up. The check is ownership-based and per function body:
//
//   - the result of a constructor (New*, Fork, Profile*) whose type
//     has a Release/Recycle method must be released on some path, escape to
//     a new owner (returned, stored, passed to a callee), or be captured by
//     a closure that does either;
//   - discarding such a result outright is always a leak;
//   - after an unconditional Release in a statement list, any further use
//     of the value in that list — including a second Release — is flagged.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc: "report pooled values (types with Release/Recycle) that are " +
		"discarded, never released and never handed off, used after " +
		"Release, or released twice",
	Run: runReleaseCheck,
}

// releaseCtorRE names the ownership-conferring constructors. The convention
// is name-based so fixtures and future pools are covered without an
// annotation system: constructors start with New (NewTrackedSnapshot,
// NewRecorder, NewPooledMemDisk), or are the fork/profile entry points
// (Fork, ProfileWorkload, ProfileExpected, ProfileKV, ProfileKVExpected).
var releaseCtorRE = regexp.MustCompile(`^(New\w*|Fork|Profile\w*)$`)

// releaseMethods are the methods that end a pooled value's lifetime.
var releaseMethods = map[string]bool{"Release": true, "Recycle": true}

// releasableCtor reports whether call is an ownership-conferring
// constructor, i.e. its callee matches the naming convention and its first
// result has a Release/Recycle method.
func releasableCtor(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !releaseCtorRE.MatchString(fn.Name()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	t := sig.Results().At(0).Type()
	return hasMethod(t, "Release") || hasMethod(t, "Recycle")
}

func runReleaseCheck(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(name string, body *ast.BlockStmt) {
			checkReleaseBody(pass, body)
		})
	}
	return nil
}

func checkReleaseBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// created maps each variable bound to a constructor result in THIS body
	// (nested literals are their own scope) to the constructor call.
	created := make(map[*types.Var]*ast.CallExpr)
	bindCtor := func(lhs ast.Expr, call *ast.CallExpr) {
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				// Blank-binding the result (p, _ := ... is fine; _ = New()
				// and _, err := New() are not) discards it outright.
				pass.Reportf(call.Pos(), "result of %s has a Release method but is discarded; the pooled value leaks", calleeFunc(info, call).Name())
				return
			}
			if v, ok := info.Defs[id].(*types.Var); ok {
				created[v] = call
			} else if v, ok := info.Uses[id].(*types.Var); ok && !isPkgLevel(v) {
				created[v] = call
			}
		}
	}
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && releasableCtor(info, call) {
				pass.Reportf(call.Pos(), "result of %s has a Release method but is discarded; the pooled value leaks", calleeFunc(info, call).Name())
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && releasableCtor(info, call) {
					bindCtor(n.Lhs[0], call)
				}
			} else {
				for i := range n.Rhs {
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && releasableCtor(info, call) {
						bindCtor(n.Lhs[i], call)
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 0 {
				if call, ok := ast.Unparen(n.Values[0]).(*ast.CallExpr); ok && releasableCtor(info, call) {
					if v, ok := info.Defs[n.Names[0]].(*types.Var); ok {
						created[v] = call
					}
				}
			}
		}
		return true
	})
	if len(created) == 0 {
		return
	}

	// isReleaseCall reports whether e is v.Release() / v.Recycle().
	isReleaseCall := func(e ast.Expr, v *types.Var) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !releaseMethods[sel.Sel.Name] {
			return false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		return ok && info.Uses[id] == v
	}
	// usesVar reports whether root references v at all.
	usesVar := func(root ast.Node, v *types.Var) bool {
		found := false
		ast.Inspect(root, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
				found = true
			}
			return !found
		})
		return found
	}

	for v, ctor := range created {
		released := false
		escaped := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if isReleaseCall(n.X, v) {
					released = true
					return false
				}
			case *ast.DeferStmt:
				if isReleaseCall(n.Call, v) {
					released = true
					return false
				}
			}
			return true
		})
		if !released {
			// No direct release: does the value escape to a new owner, or is
			// it released/used inside a closure (which counts as handing the
			// lifetime to that closure)?
			ast.Inspect(body, func(n ast.Node) bool {
				if n == ctor {
					return false
				}
				switch n := n.(type) {
				case *ast.ReturnStmt:
					if valueUse(info, n, v) {
						escaped = true
					}
				case *ast.FuncLit:
					if usesVar(n, v) {
						escaped = true // closure owns or releases it
					}
					return false
				case *ast.CallExpr:
					if isReleaseCall(n, v) {
						released = true
						return false
					}
					for _, arg := range n.Args {
						if valueUse(info, arg, v) {
							escaped = true
						}
					}
				case *ast.AssignStmt:
					for _, r := range n.Rhs {
						if ast.Unparen(r) == ast.Expr(ctor) {
							continue
						}
						if valueUse(info, r, v) {
							escaped = true
						}
					}
				case *ast.CompositeLit, *ast.SendStmt:
					if valueUse(info, n, v) {
						escaped = true
					}
					return false
				}
				return true
			})
			if !released && !escaped {
				pass.Reportf(ctor.Pos(), "%s is never released: no Release/Recycle on any path and the value never escapes this function", v.Name())
			}
		}

		// Straight-line use-after-release / double-release within each
		// statement list: once an unconditional v.Release() has run, any
		// later use of v in the same list is a bug (a reassignment of v
		// resets the tracking).
		var lists [][]ast.Stmt
		lists = append(lists, body.List)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				if n != body {
					lists = append(lists, n.List)
				}
			case *ast.CaseClause:
				lists = append(lists, n.Body)
			case *ast.CommClause:
				lists = append(lists, n.Body)
			}
			return true
		})
		for _, list := range lists {
			relDone := false
			for _, stmt := range list {
				if es, ok := stmt.(*ast.ExprStmt); ok && isReleaseCall(es.X, v) {
					if relDone {
						pass.Reportf(es.Pos(), "%s released twice; the second Release recycles buffers another state may already own", v.Name())
					}
					relDone = true
					continue
				}
				if !relDone {
					continue
				}
				if as, ok := stmt.(*ast.AssignStmt); ok {
					reassigned := false
					for _, l := range as.Lhs {
						if id, ok := l.(*ast.Ident); ok && (info.Uses[id] == v || info.Defs[id] != nil && info.Defs[id].(*types.Var) == v) {
							reassigned = true
						}
					}
					if reassigned {
						relDone = false
						continue
					}
				}
				if usesVar(stmt, v) {
					pass.Reportf(stmt.Pos(), "%s used after Release; its pooled buffers may already belong to another state", v.Name())
					break
				}
			}
		}
	}
}
