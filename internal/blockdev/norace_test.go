//go:build !race

package blockdev

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
