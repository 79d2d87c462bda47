package fscqsim

import (
	"b3/internal/codec"
	"b3/internal/filesys"
	"b3/internal/fs/diskfmt"
	"b3/internal/fstree"
)

// mounted is a mounted fscqsim instance: the shared base plus the strategy
// of a synchronous operation log.
type mounted struct {
	diskfmt.Mounted
	fs *FS

	// durableSizes holds each file's size as of the last log flush; the
	// buggy fdatasync path reuses it instead of the in-memory size.
	durableSizes map[uint64]int64
}

func (m *mounted) captureDurable() {
	m.durableSizes = make(map[uint64]int64, m.Mem.NodeCount())
	m.Mem.WalkNodes(func(n *fstree.Node) {
		if n.Kind == filesys.KindRegular {
			m.durableSizes[n.Ino] = n.Size()
		}
	})
}

func (m *mounted) appendRecord(r logRecord) error {
	return m.AppendRecord(func(e *codec.Encoder) { encodeRecord(e, r) })
}

// flushLog makes every preceding operation durable (the verified path).
func (m *mounted) flushLog() error {
	if err := m.appendRecord(logRecord{kind: recFullImage, tree: m.Mem}); err != nil {
		return err
	}
	m.captureDurable()
	return nil
}

// Touched implements diskfmt.Strategy: the log flush persists the whole
// tree, so no per-inode dirt is tracked.
func (m *mounted) Touched(*fstree.Node, diskfmt.Change) {}

// Checkpoint implements diskfmt.Strategy.
func (m *mounted) Checkpoint() error {
	if err := m.WriteCheckpoint(nil); err != nil {
		return err
	}
	m.captureDurable()
	return nil
}

// PersistNode implements diskfmt.Strategy: fsync flushes the whole
// operation log.
func (m *mounted) PersistNode(*fstree.Node) error { return m.flushLog() }

// PersistRange implements diskfmt.Strategy.
func (m *mounted) PersistRange(*fstree.Node, int64, int64) error { return m.flushLog() }

// PersistDirect implements diskfmt.Strategy (FSCQ has no O_DIRECT path; the
// write is durable via an immediate log flush).
func (m *mounted) PersistDirect(*fstree.Node, int64, []byte) error { return m.flushLog() }

// PersistData implements diskfmt.Strategy. BUG N11 (Table 5 #11): the
// logged-writes optimization in the unverified C-Haskell binding flushes
// the file's data blocks but not the log entries holding its size update,
// so the file recovers to its old size and loses the appended data.
func (m *mounted) PersistData(n *fstree.Node) error {
	if n.Kind != filesys.KindRegular {
		return m.flushLog()
	}
	size := n.Size()
	if m.fs.Has("fscq-fdatasync-logged-writes") {
		size = m.durableSizes[n.Ino]
	}
	if err := m.appendRecord(logRecord{
		kind: recDataPatch,
		ino:  n.Ino,
		data: n.Data,
		size: size,
		ext:  n.Extents,
	}); err != nil {
		return err
	}
	m.durableSizes[n.Ino] = size
	return nil
}
