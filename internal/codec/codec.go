// Package codec implements a small, deterministic, reflection-free binary
// encoder/decoder used by every on-disk structure in this repository.
//
// All file systems in this project serialize their persistent state
// (superblocks, trees, journal records, log batches) through this package so
// that the bytes written to the block device are stable across runs: the
// CrashMonkey harness replays recorded block IO to construct crash states,
// and determinism makes every bug report exactly reproducible.
//
// The format is little-endian with unsigned varints for lengths. Decoding is
// panic-free: malformed input surfaces as an error from (*Decoder).Err, which
// recovery paths translate into "corrupted file system" conditions.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is reported when the decoder runs out of bytes.
var ErrTruncated = errors.New("codec: truncated input")

// ErrCorrupt is reported when a length prefix or tag is implausible.
var ErrCorrupt = errors.New("codec: corrupt input")

// maxLen bounds any single string/byte field to guard against corrupt
// length prefixes causing huge allocations during recovery.
const maxLen = 1 << 30

// Encoder appends primitive values to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-allocated for n bytes.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer. The buffer is owned by the encoder;
// callers that retain it across further encoding must copy it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards all encoded data, retaining the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends v as an unsigned varint.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends v as a zig-zag varint.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Uint32 appends v as an unsigned varint.
func (e *Encoder) Uint32(v uint32) { e.Uint64(uint64(v)) }

// Int appends v as a zig-zag varint.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool appends v as a single byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends a raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bytes64 appends a length-prefixed byte slice.
func (e *Encoder) Bytes64(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b verbatim with no length prefix.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder consumes values from a buffer produced by Encoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset makes d decode buf from its start, as NewDecoder(buf) would, with no
// error. A copy of d taken earlier is unaffected.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first decoding error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w at offset %d", err, d.off)
	}
}

// Uint64 consumes an unsigned varint. On error it returns 0.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Int64 consumes a zig-zag varint. On error it returns 0.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Uint32 consumes an unsigned varint and narrows it to uint32.
func (d *Decoder) Uint32() uint32 {
	v := d.Uint64()
	if v > 0xFFFFFFFF {
		d.fail(ErrCorrupt)
		return 0
	}
	return uint32(v)
}

// Int consumes a zig-zag varint as an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool consumes a single byte as a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Byte consumes a raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bytes64 consumes a length-prefixed byte slice. The result is a copy the
// caller owns; use Bytes64View when the decoded buffer outlives the result
// unmodified.
func (d *Decoder) Bytes64() []byte { return bytes.Clone(d.Bytes64View()) }

// Bytes64View consumes a length-prefixed byte slice without copying: the
// result aliases the decoder's buffer, so it is valid only while that buffer
// is neither modified nor reused. Its capacity equals its length, so an
// append never writes into the bytes that follow it.
func (d *Decoder) Bytes64View() []byte {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > maxLen || int(n) > d.Remaining() {
		d.fail(ErrCorrupt)
		return nil
	}
	end := d.off + int(n)
	out := d.buf[d.off:end:end]
	d.off = end
	return out
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint64()
	if d.err != nil {
		return ""
	}
	if n > maxLen || int(n) > d.Remaining() {
		d.fail(ErrCorrupt)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Raw consumes n raw bytes without copying.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
