package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField reports struct fields that mix sync/atomic and plain access.
//
// A field whose address is passed to sync/atomic anywhere (a hot worker
// increment, say) must be accessed atomically everywhere: one plain
// fold-time read racing a concurrent atomic increment is undefined, and the
// race detector only catches it when a test happens to hit the schedule.
// This is why blockdev.BlockMeter uses atomic.Int64 — the typed API makes
// plain access inexpressible. This analyzer guards the function-based API
// for code that can't use the typed one, and catches regressions that
// reintroduce mixing.
//
// Facts are gathered across every package in the run (the atomic access and
// the plain access are usually in different functions, often different
// files), and each plain access is reported in its own package.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "report struct fields accessed via sync/atomic in one place and " +
		"plainly in another (mixed access races; use atomic everywhere or " +
		"the atomic.Int64-style typed API)",
	Run: runAtomicField,
}

// atomicFieldUse records one sync/atomic access to a field.
type atomicFieldUse struct {
	fn  string         // the sync/atomic function used
	pos token.Position // where
}

// atomicCallField returns the struct-field selector whose address call
// passes to sync/atomic, or nil. Both atomic.AddInt64(&s.f, 1) and
// (&s.f).Load()-style typed calls resolve here via the first argument; the
// typed atomic.Int64 API needs no checking (plain access to it is a
// compile-time impossibility), so only the *sync/atomic function* API is
// collected.
func atomicCallField(info *types.Info, call *ast.CallExpr) (*types.Var, *ast.SelectorExpr) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || len(call.Args) == 0 {
		return nil, nil
	}
	unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return nil, nil
	}
	sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	return field, sel
}

func runAtomicField(pass *Pass) error {
	// Phase 1: gather every atomically-accessed field across the run. The
	// loader shares parsed files between package variants, so a field's
	// declaration position is a stable cross-package key.
	atomicFields := make(map[token.Pos]atomicFieldUse)
	for _, pkg := range pass.All {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if field, _ := atomicCallField(pkg.Info, call); field != nil {
					if _, seen := atomicFields[field.Pos()]; !seen {
						atomicFields[field.Pos()] = atomicFieldUse{
							fn:  calleeFunc(pkg.Info, call).Name(),
							pos: pass.Fset.Position(call.Pos()),
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Phase 2: report plain accesses to those fields in this package.
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			field, ok := s.Obj().(*types.Var)
			if !ok {
				return true
			}
			use, tracked := atomicFields[field.Pos()]
			if !tracked {
				return true
			}
			// Atomic context: &sel is the first argument of a sync/atomic
			// call. Anything else — read, write, address passed elsewhere —
			// is a plain access.
			if len(stack) >= 2 {
				if unary, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && unary.Op == token.AND {
					if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok {
						if f, _ := atomicCallField(info, call); f != nil && f.Pos() == field.Pos() {
							return true
						}
					}
				}
			}
			pass.Reportf(sel.Pos(), "plain access to field %s, which is accessed with atomic.%s at %s:%d; mixed access races",
				field.Name(), use.fn, use.pos.Filename, use.pos.Line)
			return true
		})
	}
	return nil
}
