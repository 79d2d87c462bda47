//go:build race

package fstree

// raceDetector reports a -race build, where sync.Pool drops a share of what
// it is given, so pooled scratch is allocated again now and then.
const raceDetector = true
