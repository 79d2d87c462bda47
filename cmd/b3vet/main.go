// b3vet runs the project's static-invariant suite (internal/analysis) over
// the module: borrowview, releasecheck, atomicfield, saltcheck,
// exhaustenum, sharedcontent. It is the repo's own multichecker —
// self-contained on the standard library because the build container has
// no module proxy for
// golang.org/x/tools, so the `go vet -vettool` protocol is not available;
// scripts/b3vet.sh and the vet-suite CI job invoke this binary directly.
//
// Usage:
//
//	b3vet [-list] [-v] [packages]
//
// The package arguments are accepted for command-line symmetry with go vet
// but the whole module containing the working directory is always loaded —
// the suite's invariants are module-global (salt distinctness, cross-package
// atomic access), so partial loads would silently weaken them.
//
// Exit status is 1 if any diagnostic survives //lint:allow filtering.
package main

import (
	"flag"
	"fmt"
	"os"

	"b3/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer names in the suite and exit")
	verbose := flag.Bool("v", false, "print analyzer docs and suppression counts")
	flag.Parse()

	suite := analysis.Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Println(a.Name)
		}
		return
	}
	if *verbose {
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "%s: %s\n", a.Name, a.Doc)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fatal(err)
	}
	diags, suppressed, err := analysis.Run(pkgs, suite)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if *verbose || suppressed > 0 {
		fmt.Fprintf(os.Stderr, "b3vet: %d package(s), %d finding(s), %d suppressed by //lint:allow\n",
			len(pkgs), len(diags), suppressed)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "b3vet:", err)
	os.Exit(2)
}
