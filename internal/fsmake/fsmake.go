// Package fsmake constructs file systems under test by name — the single
// place the harness, campaign runner, and tools resolve "btrfs-like",
// "ext4-like", etc. into implementations.
package fsmake

import (
	"fmt"

	"b3/internal/bugs"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fs/f2fsim"
	"b3/internal/fs/fscqsim"
	"b3/internal/fs/journalfs"
	"b3/internal/fs/logfs"
)

// Names lists the available file systems in presentation order.
func Names() []string { return []string{"logfs", "journalfs", "f2fsim", "fscqsim", "diskfmt"} }

// Kernel returns the real file system each simulator models (for reports).
func Kernel(name string) string {
	switch name {
	case "logfs":
		return "btrfs"
	case "journalfs":
		return "ext4"
	case "f2fsim":
		return "F2FS"
	case "fscqsim":
		return "FSCQ"
	case "diskfmt":
		return "reference"
	}
	return name
}

// New builds the named file system simulating kernel version ver; a non-nil
// override pins the exact active bug set (empty map = fully fixed).
func New(name string, ver bugs.Version, override map[string]bool) (filesys.FileSystem, error) {
	opts := diskfmt.Options{Version: ver, BugOverride: override}
	switch name {
	case "logfs":
		return logfs.New(opts), nil
	case "journalfs":
		return journalfs.New(opts), nil
	case "f2fsim":
		return f2fsim.New(opts), nil
	case "fscqsim":
		return fscqsim.New(opts), nil
	case "diskfmt":
		// The reference whole-image backend has no bug mechanisms; version
		// and override select nothing.
		return diskfmt.NewFS(opts), nil
	}
	return nil, fmt.Errorf("fsmake: unknown file system %q (have %v)", name, Names())
}

// Fixed builds the named file system with every bug mechanism disabled.
func Fixed(name string) (filesys.FileSystem, error) {
	return New(name, bugs.Latest, map[string]bool{})
}

// AtVersion builds the named file system with the version-derived bug set.
func AtVersion(name string, ver bugs.Version) (filesys.FileSystem, error) {
	return New(name, ver, nil)
}

// NewBugsOnly builds the named file system carrying exactly the Table 5
// mechanisms: the paper's campaign configuration — a 4.16 kernel with every
// previously reported bug already patched, but the ten undiscovered bugs
// (plus the FSCQ one) still present.
func NewBugsOnly(name string) (filesys.FileSystem, error) {
	over := map[string]bool{}
	for _, b := range bugs.NewBugs() {
		if b.FS == name {
			over[b.ID] = true
		}
	}
	return New(name, bugs.Latest, over)
}
