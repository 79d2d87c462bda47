//go:build unix

package corpus

import (
	"fmt"
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive advisory lock on a journal,
// failing fast with ErrLocked if another process holds it. The kernel
// releases the lock when the process exits — including SIGKILL — so a
// killed writer never blocks its own successor.
func lockFile(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrLocked, f.Name(), err)
	}
	return nil
}
