// Package wire is the compact binary record format of the result cache's
// entries and of .crw waveform recordings: unsigned and zig-zag signed
// varints, single-byte booleans and length-prefixed strings, appended in
// field order. Records carry no field names and no schema; a leading magic
// and, for cache entries, the code version pin the layout.
//
// The Decoder is strict, because a cache directory or a downloaded recording
// is input from outside the process: every length prefix is checked against
// the bytes that remain before anything is allocated, and only the canonical
// encoding of each value is accepted (minimal varints, booleans 0 or 1), so
// any input it accepts re-encodes to exactly the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errTruncated reports a record that ends before its last field.
var errTruncated = errors.New("wire: truncated record")

// Encoder appends values to a record. The zero value is ready to use.
type Encoder struct{ buf []byte }

// Raw appends s verbatim (magics and other fixed-width fields).
func (e *Encoder) Raw(s string) { e.buf = append(e.buf, s...) }

// Uint appends v as an unsigned varint.
func (e *Encoder) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends v as a zig-zag signed varint.
func (e *Encoder) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends v as one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Str appends s with its length prefix.
func (e *Encoder) Str(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the encoded record.
func (e *Encoder) Bytes() []byte { return e.buf }

// Decoder reads values back in the order an Encoder wrote them. The first
// error sticks: later reads return zero values, so a decoding function reads
// every field unconditionally and checks Err (or Finish) once at the end.
type Decoder struct {
	data []byte
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first error met, if any.
func (d *Decoder) Err() error { return d.err }

// Fail records a semantic error found by the caller (an unknown enum value,
// a duplicate name); the first error wins.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Finish reports the first error, or an error when bytes remain after the
// last field: a record with trailing bytes is as untrustworthy as a
// truncated one.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.data) > 0 {
		d.Fail("wire: %d trailing bytes", len(d.data))
	}
	return d.err
}

// Raw consumes len(s) bytes and reports whether they equal s.
func (d *Decoder) Raw(s string) bool {
	if d.err != nil {
		return false
	}
	if len(d.data) < len(s) {
		d.err = errTruncated
		return false
	}
	ok := string(d.data[:len(s)]) == s
	d.data = d.data[len(s):]
	return ok
}

// Uint reads an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	switch {
	case n == 0:
		d.err = errTruncated
		return 0
	case n < 0:
		d.Fail("wire: varint overflows 64 bits")
		return 0
	case n > 1 && d.data[n-1] == 0:
		// A final zero group adds nothing: an overlong, non-canonical form.
		d.Fail("wire: overlong varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Int reads a zig-zag signed varint.
func (d *Decoder) Int() int64 {
	u := d.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.data) == 0 {
		d.err = errTruncated
		return false
	}
	b := d.data[0]
	if b > 1 {
		d.Fail("wire: bool byte %#x", b)
		return false
	}
	d.data = d.data[1:]
	return b == 1
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)) {
		d.err = errTruncated
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// Count reads the length prefix of a sequence whose elements each encode to
// at least minSize bytes, and rejects a count the remaining bytes cannot
// hold — so a crafted prefix can never make the caller allocate more than
// the record itself could describe.
func (d *Decoder) Count(minSize int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.data)/minSize) {
		d.err = errTruncated
		return 0
	}
	return int(n)
}
