package diskfmt

import "b3/internal/blockdev"

// ReadBlob is the payload reader the tests check readBlob through: the
// verified payload as the memo entry readBlob returns holds it, gathered
// from the entry's chunks into a slice of its own, and the blocks the blob
// spans.
func ReadBlob(dev blockdev.Device, startBlock int64, magic uint32) ([]byte, int64, error) {
	l, blocks, err := readBlob(dev, startBlock, magic)
	if err != nil {
		return nil, 0, err
	}
	defer l.release()
	return l.gather(), blocks, nil
}

// gather returns e's payload, gathered from its chunks.
func (e *memoEntry) gather() []byte {
	var out []byte
	for _, p := range e.chunks {
		out = append(out, p...)
	}
	return out
}

// intern is readBlob's memo step on a payload taken as verified: the
// memoised entry when its chunks equal got, else a new one (see insert).
func (c *payloadMemo) intern(k blobKey, got []byte) *memoEntry {
	if e := c.hit(k, got); e != nil {
		return e
	}
	return c.insert(k, got)
}
