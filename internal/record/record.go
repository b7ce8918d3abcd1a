// Package record holds what the session journal and the srvnet wire
// share about binary records: the CRC-32C that guards a record's body,
// and a bounds-checked cursor that decodes the body's fields. Both
// formats are a length, a checksum, then a body of bytes, uvarints,
// varints and length-prefixed strings; each package frames its own
// header, because the journal's byte layout is fixed on disk.
package record

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

var table = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC-32C of b.
func Sum(b []byte) uint32 { return crc32.Checksum(b, table) }

// Update returns crc extended by p, so a body written in pieces can be
// summed without first being copied together.
func Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, table, p) }

// Decoder is a bounds-checked cursor over a record body. It never
// panics: the first malformed or missing field sticks, every later read
// returns a zero value, and Err names the field that was bad.
//
// Varints must be minimally encoded, as encoding/binary writes them, so
// a body that decodes re-encodes to the same bytes.
type Decoder struct {
	b   []byte
	off int
	bad string
}

// NewDecoder starts a cursor at the front of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records that the field what was bad, unless an earlier field
// already failed.
func (d *Decoder) Fail(what string) {
	if d.bad == "" {
		d.bad = what
	}
}

// Err reports the first failure, or nil.
func (d *Decoder) Err() error {
	if d.bad == "" {
		return nil
	}
	return errors.New("bad " + d.bad)
}

// Remaining is the number of bytes not yet read.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Byte reads one byte.
func (d *Decoder) Byte(what string) byte {
	if d.bad != "" || d.off >= len(d.b) {
		d.Fail(what)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint(what string) uint64 { return varint(d, what, binary.Uvarint) }

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint(what string) int64 { return varint(d, what, binary.Varint) }

// varint reads one varint with read, refusing it unless it is minimal:
// a longer encoding of the same value ends in a zero byte.
func varint[T uint64 | int64](d *Decoder, what string, read func([]byte) (T, int)) T {
	if d.bad != "" {
		return 0
	}
	v, n := read(d.b[d.off:])
	if n <= 0 || (n > 1 && d.b[d.off+n-1] == 0) {
		d.Fail(what)
		return 0
	}
	d.off += n
	return v
}

// Bytes reads a uvarint length and that many bytes. The result aliases
// the body.
func (d *Decoder) Bytes(what string) []byte {
	n := d.Uvarint(what)
	if d.bad != "" {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.Fail(what)
		return nil
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// String is Bytes copied into a string.
func (d *Decoder) String(what string) string { return string(d.Bytes(what)) }

// Rest returns every byte not yet read (aliasing the body) and moves the
// cursor to the end.
func (d *Decoder) Rest() []byte {
	if d.bad != "" {
		return nil
	}
	s := d.b[d.off:]
	d.off = len(d.b)
	return s
}
