// Package analysis is a self-contained static-analysis suite encoding the
// repo's load-bearing conventions: borrowed block views (borrowview), pooled
// Release lifetimes (releasecheck), atomic counter discipline (atomicfield),
// oracle-salt hygiene (saltcheck), exhaustive enum switches (exhaustenum),
// and copy-on-write file content (sharedcontent).
//
// The hot paths bought their speed with sharp-edged idioms — zero-copy views
// that alias pooled overlay memory, sync.Pool-recycled snapshots behind
// Release(), lock-free block-layer meters, per-kind salted verdict keys. Their
// misuse is only caught dynamically if a runtime cross-check happens to hit
// the bad schedule; these analyzers catch the whole bug class at vet time
// (the WITCHER argument: check code-level invariants statically instead of
// stumbling on one violation at a time).
//
// The framework is deliberately small and dependency-free: the container
// that builds this repo has no module proxy access, so instead of
// golang.org/x/tools/go/analysis it reimplements the same shape —
// Analyzer/Pass/Diagnostic, a module loader on go/types with the stdlib
// source importer, want-comment fixtures (internal/analysis/analysistest),
// and a //lint:allow escape hatch — on the standard library alone. The
// cmd/b3vet driver runs the suite over the module (scripts/b3vet.sh, the
// vet-suite CI job); `go vet -vettool` is not used because the vet protocol
// lives in x/tools.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run is invoked once per loaded
// package with a fresh Pass; it reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and //lint:allow.
	Name string
	// Doc is a one-paragraph description of the invariant checked.
	Doc string
	// Run analyzes pass.Pkg. Cross-package analyzers may consult pass.All.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis; diagnostics should concern its
	// files only.
	Pkg *Package
	// All is every package in the run (the whole module under cmd/b3vet, a
	// single fixture package under analysistest). Cross-package invariants
	// (atomic fields, salt distinctness) gather their global facts here and
	// report only what lies in Pkg.
	All []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRE matches the suppression escape hatch: a comment of the form
//
//	//lint:allow analyzer[,analyzer...] reason...
//
// suppresses those analyzers' findings on the comment's own line and on the
// line immediately below (so it can ride at the end of the offending line or
// stand on its own line above it). The reason is required: an allow without
// a why is itself worth flagging in review.
var allowRE = regexp.MustCompile(`^//lint:allow\s+([\w,]+)\s+\S`)

// allowSet maps file:line to the analyzer names allowed there.
type allowSet map[string]map[string]bool

func (s allowSet) add(file string, line int, names string) {
	for _, name := range strings.Split(names, ",") {
		for _, l := range []int{line, line + 1} {
			key := fmt.Sprintf("%s:%d", file, l)
			if s[key] == nil {
				s[key] = make(map[string]bool)
			}
			s[key][name] = true
		}
	}
}

func (s allowSet) allows(d Diagnostic) bool {
	key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
	return s[key][d.Analyzer]
}

// collectAllows scans every comment in pkgs for //lint:allow directives.
func collectAllows(fset *token.FileSet, pkgs []*Package) allowSet {
	allows := make(allowSet)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if m := allowRE.FindStringSubmatch(c.Text); m != nil {
						pos := fset.Position(c.Pos())
						allows.add(pos.Filename, pos.Line, m[1])
					}
				}
			}
		}
	}
	return allows
}

// Run applies every analyzer to every package, filters findings through the
// //lint:allow escape hatch, and returns the surviving diagnostics sorted by
// position plus the number suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) (diags []Diagnostic, suppressed int, err error) {
	if len(pkgs) == 0 {
		return nil, 0, nil
	}
	fset := pkgs[0].Fset
	var raw []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, All: pkgs, diags: &raw}
			if err := a.Run(pass); err != nil {
				return nil, 0, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	allows := collectAllows(fset, pkgs)
	for _, d := range raw {
		if allows.allows(d) {
			suppressed++
			continue
		}
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, suppressed, nil
}

// inspectStack walks root in source order, calling f with each node and the
// stack of its ancestors (outermost first, not including n itself). If f
// returns false the node's children are skipped.
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
