//go:build !race

package fstree

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
