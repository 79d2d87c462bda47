package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is an open, flock-guarded, append-only file of JSON records, one
// per line: the durable-log core under corpus shards and the fleet ledger.
// Its first record binds the file to one writer configuration (a shard's
// Meta, the ledger's Spec). Appends are buffered and made durable by a
// checkpoint — flush plus fsync — every FlushEvery records.
//
// An I/O error is sticky: once an Append or Checkpoint fails, every later
// one returns that error, so a half-written line is never followed by good
// records.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	path    string
	pending int
	err     error
	closed  bool
	// FlushEvery is the checkpoint interval in records (default
	// DefaultFlushEvery); 0 never checkpoints on its own. Set before the
	// first Append.
	FlushEvery int
}

// OpenJournal opens (creating it and its directory if needed) the journal
// at path. The single-writer lock is taken before anything is read, so a
// live writer's file is never inspected mid-write or truncated by a
// would-be writer that then fails the lock; a held lock fails with
// ErrLocked. Every complete record is then replayed through apply (see
// replay); a nil apply replays nothing and discards the previous contents.
//
// When no record survives — a fresh file, or a writer killed before its
// binding record reached disk — the file is emptied and binding is written
// and fsynced as its first record. Otherwise the file is truncated to its
// valid prefix, dropping a torn tail so appends start on a line boundary.
// A replay error leaves the file untouched.
func OpenJournal[T any](path string, binding any, apply func(*T) error) (_ *Journal, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if err := lockFile(f); err != nil {
		return nil, err
	}
	var valid int64
	records := 0
	if apply != nil {
		// The lock is held, so the contents are stable from here on.
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		valid, err = replay(path, data, func(rec *T) error {
			records++
			return apply(rec)
		})
		if err != nil {
			return nil, err
		}
	}
	if records == 0 {
		valid = 0
	}
	if err := f.Truncate(valid); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), path: path, FlushEvery: DefaultFlushEvery}
	if records == 0 {
		if err := j.Append(binding); err != nil {
			return nil, err
		}
		if err := j.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// replay splits data into newline-terminated records, decodes each into a
// fresh T and hands it to apply in order, returning the byte length of the
// prefix it consumed: 0 or a length ending on a newline. Blank lines are
// skipped. A final line without its newline is a torn write and is
// dropped; so is a final line that does not decode, since a tear can end
// exactly on a newline. A line that does not decode anywhere earlier is
// corruption, and replay fails naming path. Errors from apply are returned
// as they are.
func replay[T any](path string, data []byte, apply func(*T) error) (int64, error) {
	var valid int64
	for rest := data; ; {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return valid, nil
		}
		raw := rest[:i]
		rest = rest[i+1:]
		if len(bytes.TrimSpace(raw)) > 0 {
			rec := new(T)
			if err := json.Unmarshal(raw, rec); err != nil {
				if len(bytes.TrimSpace(rest)) == 0 {
					return valid, nil
				}
				return 0, fmt.Errorf("corpus: %s: corrupt record: %w", path, err)
			}
			if err := apply(rec); err != nil {
				return 0, err
			}
		}
		valid += int64(i) + 1
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append buffers one record as a JSON line, checkpointing every FlushEvery
// records. Safe for concurrent use.
func (j *Journal) Append(rec any) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.bw.Write(buf); err != nil {
		return j.fail(err)
	}
	if err := j.bw.WriteByte('\n'); err != nil {
		return j.fail(err)
	}
	j.pending++
	if j.FlushEvery > 0 && j.pending >= j.FlushEvery {
		return j.checkpointLocked()
	}
	return nil
}

// Checkpoint flushes buffered records and fsyncs the journal, bounding what
// a kill can lose. With nothing appended since the last checkpoint it is a
// no-op.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpointLocked()
}

func (j *Journal) checkpointLocked() error {
	if j.err != nil || j.pending == 0 {
		return j.err
	}
	if err := j.bw.Flush(); err != nil {
		return j.fail(err)
	}
	if err := j.f.Sync(); err != nil {
		return j.fail(err)
	}
	j.pending = 0
	return nil
}

// fail makes err the journal's sticky error.
func (j *Journal) fail(err error) error {
	j.err = fmt.Errorf("corpus: %w", err)
	return j.err
}

// Close checkpoints and closes the journal, releasing its lock. Idempotent:
// a second Close is a no-op, so callers can both defer it for early-return
// safety and call it explicitly to observe the final checkpoint error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.checkpointLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
