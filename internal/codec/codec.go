// Package codec implements the compact binary encoding shared by
// checkpoint metadata, the object store index, and the Aurora file
// system: varints and length-prefixed byte strings, nothing
// reflective, so the on-disk format stays stable and deterministic.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorrupt is returned when a decoder runs off the end of its buffer
// or encounters an impossible value.
var ErrCorrupt = errors.New("codec: corrupt serialized object")

// Encoder serializes kernel objects into a compact binary form. Every
// POSIX object in Aurora carries code to serialize itself (the paper's
// "first class objects"); they all funnel through this encoder so the
// on-disk format is uniform and deterministic.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Grow reserves room for n more bytes, so an encoder that knows its
// size up front fills one buffer instead of growing it by doubling.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Len returns the current encoding size.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 appends a varint-encoded unsigned integer.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a varint-encoded signed integer.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// U32 appends a 32-bit value.
func (e *Encoder) U32(v uint32) { e.U64(uint64(v)) }

// U16 appends a 16-bit value.
func (e *Encoder) U16(v uint16) { e.U64(uint64(v)) }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(p []byte) {
	e.U64(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) { e.Bytes2([]byte(s)) }

// StrSlice appends a slice of strings.
func (e *Encoder) StrSlice(ss []string) {
	e.U64(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// U64Slice appends a slice of unsigned integers.
func (e *Encoder) U64Slice(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Decoder reads back what an Encoder produced.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Err returns the first decoding error encountered.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// U64 reads a varint-encoded unsigned integer.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// I64 reads a varint-encoded signed integer.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// U32 reads a 32-bit value.
func (d *Decoder) U32() uint32 { return uint32(d.U64()) }

// U16 reads a 16-bit value.
func (d *Decoder) U16() uint16 { return uint16(d.U64()) }

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Bytes2 reads a length-prefixed byte slice into a fresh copy.
func (d *Decoder) Bytes2() []byte {
	v := d.View()
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// View reads a length-prefixed byte slice like Bytes2 but returns a
// view of the decoder's buffer instead of a copy. The view aliases the
// buffer: the caller must not write through it, and must copy out what
// it keeps beyond the buffer's lifetime.
func (d *Decoder) View() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	v := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes2()) }

// StrSlice reads a slice of strings.
func (d *Decoder) StrSlice() []string {
	n := d.U64()
	if d.err != nil || n > uint64(d.Remaining()) {
		d.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Str())
	}
	return out
}

// U64Slice reads a slice of unsigned integers.
func (d *Decoder) U64Slice() []uint64 {
	n := d.U64()
	if d.err != nil || n > uint64(d.Remaining())+1 {
		d.fail()
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.U64())
	}
	return out
}

// Finish returns ErrCorrupt-wrapped context if any read failed.
func (d *Decoder) Finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("decoding %s: %w", what, d.err)
	}
	return nil
}
