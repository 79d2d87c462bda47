package analysis_test

import (
	"testing"

	"b3/internal/analysis"
	"b3/internal/analysis/analysistest"
)

func TestBorrowView(t *testing.T) {
	analysistest.Run(t, "testdata/borrowview", analysis.BorrowView)
}

func TestReleaseCheck(t *testing.T) {
	analysistest.Run(t, "testdata/releasecheck", analysis.ReleaseCheck)
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, "testdata/atomicfield", analysis.AtomicField)
}

func TestSaltCheck(t *testing.T) {
	analysistest.Run(t, "testdata/saltcheck", analysis.SaltCheck)
}

func TestSharedContent(t *testing.T) {
	analysistest.Run(t, "testdata/sharedcontent", analysis.SharedContent)
}

func TestExhaustEnum(t *testing.T) {
	analysistest.Run(t, "testdata/exhaustenum", analysis.ExhaustEnum)
}
