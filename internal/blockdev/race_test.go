//go:build race

package blockdev

// raceDetector reports a -race build, where sync.Pool drops a share of what
// it is given and the instrumentation allocates, so allocation counts are
// not exact.
const raceDetector = true
