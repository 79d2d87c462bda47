//go:build !unix

package corpus

import (
	"errors"
	"fmt"
	"os"
)

// lockFile refuses to open journals where flock is unavailable. Pretending
// to lock would let two concurrent writers silently interleave JSONL
// records into one file; an explicit error is the honest failure mode until
// a portable lockfile protocol is implemented.
func lockFile(f *os.File) error {
	return fmt.Errorf("corpus: %s: single-writer locking is unsupported on this platform: %w",
		f.Name(), errors.ErrUnsupported)
}
