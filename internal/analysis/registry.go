package analysis

// Analyzers returns the full b3vet suite, sorted by name. cmd/b3vet runs
// exactly this set; the registry meta-test (registry_test.go) asserts the
// two can never drift apart, so an analyzer added here is wired everywhere
// or the build fails.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		BorrowView,
		ExhaustEnum,
		ReleaseCheck,
		SaltCheck,
		SharedContent,
	}
}
