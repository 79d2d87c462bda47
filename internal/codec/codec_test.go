package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripPrimitives(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(0)
	e.Uint64(math.MaxUint64)
	e.Int64(-1)
	e.Int64(math.MinInt64)
	e.Int64(math.MaxInt64)
	e.Uint32(0xDEADBEEF)
	e.Int(-42)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0x7F)
	e.Bytes64([]byte{1, 2, 3})
	e.Bytes64(nil)
	e.String("hello, 世界")
	e.String("")
	e.Raw([]byte{9, 9})

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != 0 {
		t.Errorf("Uint64 = %d, want 0", got)
	}
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d, want max", got)
	}
	if got := d.Int64(); got != -1 {
		t.Errorf("Int64 = %d, want -1", got)
	}
	if got := d.Int64(); got != math.MinInt64 {
		t.Errorf("Int64 = %d, want min", got)
	}
	if got := d.Int64(); got != math.MaxInt64 {
		t.Errorf("Int64 = %d, want max", got)
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %x", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d, want -42", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Byte(); got != 0x7F {
		t.Errorf("Byte = %x", got)
	}
	if got := d.Bytes64(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes64 = %v", got)
	}
	if got := d.Bytes64(); len(got) != 0 {
		t.Errorf("nil Bytes64 = %v", got)
	}
	if got := d.String(); got != "hello, 世界" {
		t.Errorf("String = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := d.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("Raw = %v", got)
	}
	if d.Err() != nil {
		t.Fatalf("decoder error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", d.Remaining())
	}
}

func TestTruncatedInput(t *testing.T) {
	e := NewEncoder(0)
	e.String("abcdef")
	buf := e.Bytes()

	for cut := 0; cut < len(buf); cut++ {
		d := NewDecoder(buf[:cut])
		_ = d.String()
		if d.Err() == nil {
			t.Fatalf("cut=%d: expected error on truncated input", cut)
		}
	}
}

func TestCorruptLength(t *testing.T) {
	// A huge varint length with no payload must fail, not allocate.
	e := NewEncoder(0)
	e.Uint64(uint64(maxLen) + 1)
	d := NewDecoder(e.Bytes())
	if b := d.Bytes64(); b != nil || d.Err() == nil {
		t.Fatal("expected corrupt-length error")
	}
}

func TestErrorSticky(t *testing.T) {
	d := NewDecoder(nil)
	_ = d.Uint64()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = d.String()
	_ = d.Int64()
	if d.Err() != first {
		t.Fatal("error should be sticky (first error preserved)")
	}
}

func TestBytes64Copies(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes64([]byte{1, 2, 3})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Bytes64()
	buf[1] = 99 // mutate source
	if got[0] != 1 {
		t.Fatal("Bytes64 must copy out of the input buffer")
	}
}

func TestBytes64ViewAliases(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes64([]byte{1, 2, 3})
	e.Byte(0xEE)
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Bytes64View()
	if !bytes.Equal(got, []byte{1, 2, 3}) || d.Err() != nil {
		t.Fatalf("Bytes64View = %v, %v", got, d.Err())
	}
	if cap(got) != len(got) {
		t.Fatalf("cap = %d, want len %d: an append could overwrite what follows", cap(got), len(got))
	}
	buf[1] = 99
	if got[0] != 99 {
		t.Fatal("Bytes64View must alias the input buffer")
	}
	if _ = append(got, 0); d.Byte() != 0xEE {
		t.Fatal("append to a view wrote into the next field")
	}

	// Truncated and oversized lengths fail exactly like Bytes64.
	trunc := NewEncoder(0)
	trunc.Bytes64([]byte("abcdef"))
	huge := NewEncoder(0)
	huge.Uint64(uint64(maxLen) + 1)
	inputs := [][]byte{huge.Bytes()}
	for cut := 0; cut < trunc.Len(); cut++ {
		inputs = append(inputs, trunc.Bytes()[:cut])
	}
	for _, in := range inputs {
		copied, viewed := NewDecoder(in), NewDecoder(in)
		a, b := copied.Bytes64(), viewed.Bytes64View()
		if a != nil || b != nil || copied.Err() == nil || viewed.Err() == nil ||
			copied.Err().Error() != viewed.Err().Error() {
			t.Fatalf("input %v: Bytes64 = %v, %v; Bytes64View = %v, %v", in, a, copied.Err(), b, viewed.Err())
		}
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string, b []byte, u uint64, i int64, ok bool) bool {
		e := NewEncoder(0)
		e.String(s)
		e.Bytes64(b)
		e.Uint64(u)
		e.Int64(i)
		e.Bool(ok)
		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.Bytes64()
		gu := d.Uint64()
		gi := d.Int64()
		gok := d.Bool()
		return d.Err() == nil && gs == s && bytes.Equal(gb, b) &&
			gu == u && gi == i && gok == ok && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecoderNeverPanics(t *testing.T) {
	// Arbitrary garbage must never panic the decoder.
	f := func(garbage []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		d := NewDecoder(garbage)
		for d.Err() == nil && d.Remaining() > 0 {
			_ = d.String()
			_ = d.Uint64()
			_ = d.Bytes64()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderReset: Reset clears a sticky error and rewinds onto the new
// buffer, and a value copy taken before it keeps decoding the old one.
func TestDecoderReset(t *testing.T) {
	e := NewEncoder(0)
	e.Uint64(5)
	e.Uint64(6)
	d := NewDecoder(e.Bytes())
	d.Uint64()
	saved := *d
	d.Reset(nil)
	if d.Uint64(); d.Err() == nil {
		t.Fatal("decoding an empty buffer must fail")
	}
	d.Reset([]byte{9})
	if d.Uint64() != 9 || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("after Reset: err %v, remaining %d", d.Err(), d.Remaining())
	}
	if saved.Uint64() != 6 || saved.Err() != nil {
		t.Fatal("a copy taken before Reset lost its position")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.String("x")
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	e.Uint64(7)
	d := NewDecoder(e.Bytes())
	if d.Uint64() != 7 || d.Err() != nil {
		t.Fatal("encoder unusable after Reset")
	}
}
