// Package journal provides the write-ahead log behind crash-safe help
// sessions. The design follows classic database recovery split into a
// help-sized shape:
//
//   - Every session mutation is an Op — a small, self-describing record
//     (splice, selection, window placement, snarf, file write, ...)
//     stamped with a strictly increasing generation number.
//   - Ops are framed on disk as [4-byte length][4-byte CRC32][payload]
//     and appended to segment files named wal-<gen>.log, where <gen> is
//     the generation of the checkpoint the segment follows.
//   - Periodically the whole session (vfs contents, windows, layout,
//     selections, snarf) is snapshotted into a checkpoint file, written
//     atomically via tmp+rename; older segments are then deleted
//     (compaction), so the journal's size is bounded by one checkpoint
//     plus the tail of ops since.
//   - Recovery = decode checkpoint, replay ops with generation greater
//     than the checkpoint's, in order. A torn final record (power cut
//     mid-append) is detected by the length/CRC framing and discarded;
//     corruption anywhere else is reported as ErrCorrupt, never
//     replayed and never panicking.
//
// The Writer batches appends through a single background goroutine
// (group commit) so the interactive event loop never blocks on fsync.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/record"
)

// OpKind enumerates the record types the session journal uses. The
// values are part of the on-disk format; append only.
type OpKind byte

const (
	// OpSplice: body/tag text edit. Win/Sub locate the buffer, P0 is
	// the rune offset, P1 the number of runes deleted, Str1 the runes
	// inserted.
	OpSplice OpKind = 1
	// OpClean: the buffer's Modified flag changed. Flag true = clean.
	OpClean OpKind = 2
	// OpSelect: selection changed. Win/Sub, P0=q0, P1=q1.
	OpSelect OpKind = 3
	// OpCurrent: the current (focus) window/subwindow changed.
	OpCurrent OpKind = 4
	// OpSnarf: the snarf buffer changed. Str1 is the new contents.
	OpSnarf OpKind = 5
	// OpNewWin: window Win was created. Str1 is the tag line, Flag is
	// IsDir.
	OpNewWin OpKind = 6
	// OpCloseWin: window Win was closed.
	OpCloseWin OpKind = 7
	// OpPlace: window Win moved: P0=column index, P1=top row,
	// P2 packs hidden (bit 0) and IsDir (bit 1).
	OpPlace OpKind = 8
	// OpScroll: window Win's body origin changed to P0.
	OpScroll OpKind = 9
	// OpColSplit: the column split moved; P0 is column 0's right edge.
	OpColSplit OpKind = 10
	// OpFile: a namespace mutation. P0 is a vfs mutation kind
	// (write/append/remove/mkdir/bind), Str1 the path (or bind
	// source), Str2 the written bytes (or bind mountpoint), P1 the
	// bind flag.
	OpFile OpKind = 11
	// OpErrors: the Errors window identity changed; Win is the new
	// Errors window's id, 0 for none.
	OpErrors OpKind = 12
)

// Op is one journal record. The fields are a superset; each kind uses
// the subset documented on its constant. Gen is assigned by the Writer.
type Op struct {
	Kind OpKind
	Gen  uint64
	Win  int
	Sub  int
	P0   int
	P1   int
	P2   int
	Flag bool
	Str1 string
	Str2 string
}

// File-format constants. Magic numbers lead every file so recovery can
// tell a torn header from a foreign file.
const (
	segMagic  = "HELPWAL1"
	ckptMagic = "HELPCKP1"

	segHeaderLen  = 16 // magic + base generation
	recHeaderLen  = 8  // length + CRC32
	ckptHeaderLen = 24 // magic + generation + length + CRC32

	// MaxRecord bounds a single record's payload. Anything larger in a
	// length header is corruption, not a real record; the bound keeps a
	// flipped length bit from provoking a giant allocation.
	MaxRecord = 1 << 26
)

// ErrCorrupt reports a journal that is damaged somewhere other than
// the final record of the final segment. Torn final records are
// expected after a crash and are silently discarded; mid-file damage
// means the medium lied and recovery must not guess.
var ErrCorrupt = errors.New("journal: corrupt")

// ErrNoState reports an empty journal directory: nothing to recover.
var ErrNoState = errors.New("journal: no checkpoint or segments")

// appendOpPayload encodes op (including its generation) onto dst.
func appendOpPayload(dst []byte, op *Op) []byte {
	dst = append(dst, byte(op.Kind))
	dst = binary.AppendUvarint(dst, op.Gen)
	dst = binary.AppendVarint(dst, int64(op.Win))
	dst = binary.AppendVarint(dst, int64(op.Sub))
	dst = binary.AppendVarint(dst, int64(op.P0))
	dst = binary.AppendVarint(dst, int64(op.P1))
	dst = binary.AppendVarint(dst, int64(op.P2))
	if op.Flag {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(op.Str1)))
	dst = append(dst, op.Str1...)
	dst = binary.AppendUvarint(dst, uint64(len(op.Str2)))
	dst = append(dst, op.Str2...)
	return dst
}

// varint32 reads a varint field that must fit an int32, the range the
// journal's ints take.
func varint32(d *record.Decoder, what string) int {
	v := d.Varint(what)
	if v < int64(-1<<31) || v > int64(1<<31) {
		d.Fail(what)
		return 0
	}
	return int(v)
}

// decodeOpPayload decodes a record payload produced by appendOpPayload.
// It never panics; malformed input yields an error wrapping ErrCorrupt.
func decodeOpPayload(b []byte) (Op, error) {
	d := record.NewDecoder(b)
	var op Op
	op.Kind = OpKind(d.Byte("kind"))
	op.Gen = d.Uvarint("gen")
	op.Win = varint32(&d, "win")
	op.Sub = varint32(&d, "sub")
	op.P0 = varint32(&d, "p0")
	op.P1 = varint32(&d, "p1")
	op.P2 = varint32(&d, "p2")
	op.Flag = d.Byte("flag") != 0
	op.Str1 = d.String("str1")
	op.Str2 = d.String("str2")
	if d.Remaining() != 0 {
		d.Fail("trailing bytes")
	}
	if err := d.Err(); err != nil {
		return Op{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if op.Kind < OpSplice || op.Kind > OpErrors {
		return Op{}, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, op.Kind)
	}
	return op, nil
}

// opFixedMax bounds the encoded size of an op's fields other than its
// two strings: the kind and flag bytes plus eight varints (gen, win,
// sub, p0, p1, p2 and the two string lengths).
const opFixedMax = 2 + 8*binary.MaxVarintLen64

// EncodeOp frames op as a complete on-disk record: length, CRC32-C,
// payload. The payload is encoded once, straight after a reserved
// header that is then filled in place, into a record allocated at its
// final size. The byte sequence a given op produces is independent of
// batching, which is what makes a journal byte stream deterministic for
// a given session script.
func EncodeOp(op *Op) []byte {
	rec := make([]byte, recHeaderLen, recHeaderLen+opFixedMax+len(op.Str1)+len(op.Str2))
	rec = appendOpPayload(rec, op)
	payload := rec[recHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], record.Sum(payload))
	return rec
}

// segmentName returns the file name for the segment holding ops after
// checkpoint generation base.
func segmentName(base uint64) string {
	return fmt.Sprintf("wal-%020d.log", base)
}

// parseSegmentName extracts the base generation from a segment name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(digits) == 0 {
		return 0, false
	}
	base, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// appendSegmentHeader writes the segment file header: magic plus the
// base generation, so a renamed file can't masquerade as a segment.
func appendSegmentHeader(dst []byte, base uint64) []byte {
	dst = append(dst, segMagic...)
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], base)
	return append(dst, g[:]...)
}

// encodeCheckpoint frames a checkpoint payload: magic, generation,
// length, CRC32-C, payload.
func encodeCheckpoint(gen uint64, payload []byte) []byte {
	buf := make([]byte, 0, ckptHeaderLen+len(payload))
	buf = append(buf, ckptMagic...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], gen)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], record.Sum(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// decodeCheckpoint validates and splits a checkpoint file.
func decodeCheckpoint(b []byte) (gen uint64, payload []byte, err error) {
	if len(b) < ckptHeaderLen {
		return 0, nil, fmt.Errorf("%w: checkpoint truncated", ErrCorrupt)
	}
	if string(b[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("%w: checkpoint magic", ErrCorrupt)
	}
	gen = binary.LittleEndian.Uint64(b[8:16])
	n := binary.LittleEndian.Uint32(b[16:20])
	sum := binary.LittleEndian.Uint32(b[20:24])
	if uint64(n) != uint64(len(b)-ckptHeaderLen) {
		return 0, nil, fmt.Errorf("%w: checkpoint length", ErrCorrupt)
	}
	payload = b[ckptHeaderLen:]
	if record.Sum(payload) != sum {
		return 0, nil, fmt.Errorf("%w: checkpoint checksum", ErrCorrupt)
	}
	return gen, payload, nil
}

// RecordEnds returns every byte offset in a segment file that is a
// whole-record boundary: the end of the header, then the end of each
// well-formed record. Crash-matrix tests truncate at (and between)
// these offsets. Scanning stops at the first malformed record.
func RecordEnds(seg []byte) []int {
	var ends []int
	if len(seg) < segHeaderLen || string(seg[:8]) != segMagic {
		return ends
	}
	off := segHeaderLen
	ends = append(ends, off)
	for off+recHeaderLen <= len(seg) {
		n := int(binary.LittleEndian.Uint32(seg[off : off+4]))
		sum := binary.LittleEndian.Uint32(seg[off+4 : off+8])
		if n > MaxRecord || off+recHeaderLen+n > len(seg) {
			break
		}
		payload := seg[off+recHeaderLen : off+recHeaderLen+n]
		if record.Sum(payload) != sum {
			break
		}
		off += recHeaderLen + n
		ends = append(ends, off)
	}
	return ends
}
