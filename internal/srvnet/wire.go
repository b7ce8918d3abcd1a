package srvnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/record"
	"repro/internal/vfs"
)

// The wire format. Every message, in either direction, is one frame:
//
//	len[4] crc[4] body
//
// len counts the body's bytes and crc is the body's CRC-32C, both
// big-endian. The checksum covers every field, so a damaged byte in a
// path, a generation or an error code fails the frame before any field
// is decoded. Big-endian puts the length's high byte first, and every
// legal length keeps that byte below 0x10 (maxFrame is 1<<28), so damage
// that raises it fails the frame at once instead of leaving the receiver
// waiting for bytes that will never come.
//
// A request body is op[1], then seq, the append flag[1], off, count and
// wait, then the length-prefixed path and pattern, then the payload,
// which is the rest of the body. A reply body is seq, code[1], the
// length-prefixed err, gen and retry, then a counted list of entries
// (a vfs.Info each: name, isDir[1], size, modTime, gen), then the
// payload. Unsigned
// fields are uvarints and signed ones varints, minimally encoded, so a
// frame that decodes re-encodes to the same bytes. readdir replies use
// the entry list, stat sends one entry, and glob sends entries that
// carry only names.

const frameHeader = 8

// maxFrame bounds a frame's body, so a damaged length cannot ask the
// receiver to allocate gigabytes. It is checked before anything is
// allocated.
const maxFrame = 1 << 28

var (
	errFrameSize = fmt.Errorf("%w: frame length exceeds limit", ErrProto)
	errSum       = fmt.Errorf("%w: frame checksum mismatch", ErrProto)
)

// op is a request's operation. The values are part of the wire format;
// append only.
type op byte

const (
	opRead op = iota + 1
	opReadAt
	opReadWait
	opWrite
	opReadDir
	opStat
	opGlob
	opMkdir
	opRemove
	opAttach
)

var opNames = [...]string{
	opRead:     "read",
	opReadAt:   "readat",
	opReadWait: "readwait",
	opWrite:    "write",
	opReadDir:  "readdir",
	opStat:     "stat",
	opGlob:     "glob",
	opMkdir:    "mkdir",
	opRemove:   "remove",
	opAttach:   "attach",
}

// String names the op for metrics and messages; an op this side does
// not know prints as its number.
func (o op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return strconv.Itoa(int(o))
}

// code is a reply's wire error code: an index into codeErrs, which maps
// vfs sentinels (and protocol conditions) across the connection so
// clients can classify failures with errors.Is. codeNone is a reply
// without a code. The values are part of the wire format; append only.
type code byte

const (
	codeNone code = iota
	codeNotExist
	codeExist
	codeIsDir
	codeNotDir
	codePerm
	codeBadMode
	codeProto
	codeBusy
	codeDraining
	codeNoSess
)

var codeErrs = [...]error{
	codeNotExist: vfs.ErrNotExist,
	codeExist:    vfs.ErrExist,
	codeIsDir:    vfs.ErrIsDir,
	codeNotDir:   vfs.ErrNotDir,
	codePerm:     vfs.ErrPerm,
	codeBadMode:  vfs.ErrBadMode,
	codeProto:    ErrProto,
	codeBusy:     ErrBusy,
	codeDraining: ErrDraining,
	codeNoSess:   ErrNoSession,
}

// request is one wire operation.
type request struct {
	Seq    uint64
	Op     op
	Append bool
	// Offset and Count address a readat chunk. readwait reuses Offset
	// as the resume sequence number (the last event seq the subscriber
	// has seen).
	Offset int64
	Count  int64
	// Wait is a readwait long-poll bound in milliseconds; <= 0 asks for
	// the server's maximum.
	Wait    int64
	Path    string
	Pattern string
	Data    []byte
}

// response is one wire reply. Seq echoes the request's sequence number;
// a response the server cannot attribute to a request (a malformed
// frame, a busy rejection) carries Seq 0 and a Code of codeProto or
// codeBusy. Gen is a readwait reply's resume seq: the seq the
// subscriber passes as Offset on its next poll.
type response struct {
	Seq  uint64
	Code code
	Err  string
	Gen  uint64
	// Retry, on a busy refusal, is the server's retry-after hint in
	// milliseconds: how long the refused client should wait (jittered)
	// before trying again.
	Retry   int64
	Entries []vfs.Info
	Data    []byte
}

// frameReq encodes req as one frame into bw. buf is reused scratch for
// the header and fields; the (possibly regrown) buffer is returned for
// the caller to keep. The payload goes to bw as it is, never copied into
// buf.
func frameReq(bw *bufio.Writer, buf []byte, req *request) ([]byte, error) {
	buf = append(buf[:0], make([]byte, frameHeader)...)
	buf = append(buf, byte(req.Op))
	buf = binary.AppendUvarint(buf, req.Seq)
	buf = appendBool(buf, req.Append)
	buf = binary.AppendVarint(buf, req.Offset)
	buf = binary.AppendVarint(buf, req.Count)
	buf = binary.AppendVarint(buf, req.Wait)
	buf = appendString(buf, req.Path)
	buf = appendString(buf, req.Pattern)
	return buf, writeFrame(bw, buf, req.Data)
}

// frameResp is frameReq for replies.
func frameResp(bw *bufio.Writer, buf []byte, resp *response) ([]byte, error) {
	buf = append(buf[:0], make([]byte, frameHeader)...)
	buf = binary.AppendUvarint(buf, resp.Seq)
	buf = append(buf, byte(resp.Code))
	buf = appendString(buf, resp.Err)
	buf = binary.AppendUvarint(buf, resp.Gen)
	buf = binary.AppendVarint(buf, resp.Retry)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Entries)))
	for i := range resp.Entries {
		e := &resp.Entries[i]
		buf = appendString(buf, e.Name)
		buf = appendBool(buf, e.IsDir)
		buf = binary.AppendVarint(buf, e.Size)
		buf = binary.AppendVarint(buf, e.ModTime)
		buf = binary.AppendUvarint(buf, e.Gen)
	}
	return buf, writeFrame(bw, buf, resp.Data)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// writeFrame fills in the header of the frame in buf, whose body is
// buf's fields followed by payload, and writes both to bw.
func writeFrame(bw *bufio.Writer, buf, payload []byte) error {
	fields := buf[frameHeader:]
	n := len(fields) + len(payload)
	if n > maxFrame {
		return errFrameSize
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(n))
	binary.BigEndian.PutUint32(buf[4:8], record.Update(record.Sum(fields), payload))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// readReq reads and decodes one request frame. req is overwritten
// whole, so nothing carries over from the previous frame.
func readReq(br *bufio.Reader, req *request) error {
	body, owned, err := readFrame(br)
	if err != nil {
		return err
	}
	// The fields decode in the order they are listed.
	d := record.NewDecoder(body)
	*req = request{
		Op:      op(d.Byte("op")),
		Seq:     d.Uvarint("seq"),
		Append:  decodeBool(&d, "append"),
		Offset:  d.Varint("off"),
		Count:   d.Varint("count"),
		Wait:    d.Varint("wait"),
		Path:    d.String("path"),
		Pattern: d.String("pattern"),
		Data:    payload(&d, owned),
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: request %v", ErrProto, err)
	}
	return nil
}

// readResp is readReq for replies.
func readResp(br *bufio.Reader, resp *response) error {
	body, owned, err := readFrame(br)
	if err != nil {
		return err
	}
	d := record.NewDecoder(body)
	*resp = response{}
	resp.Seq = d.Uvarint("seq")
	resp.Code = code(d.Byte("code"))
	if int(resp.Code) >= len(codeErrs) {
		d.Fail("code")
	}
	resp.Err = d.String("err")
	resp.Gen = d.Uvarint("gen")
	resp.Retry = d.Varint("retry")
	// An entry takes at least five bytes, which bounds the count before
	// anything is allocated for it.
	if n := d.Uvarint("entries"); n > uint64(d.Remaining()/5) {
		d.Fail("entries")
	} else if n > 0 {
		resp.Entries = make([]vfs.Info, n)
		for i := range resp.Entries {
			e := &resp.Entries[i]
			e.Name = d.String("entry name")
			e.IsDir = decodeBool(&d, "entry isDir")
			e.Size = d.Varint("entry size")
			e.ModTime = d.Varint("entry modTime")
			e.Gen = d.Uvarint("entry gen")
		}
	}
	resp.Data = payload(&d, owned)
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: reply %v", ErrProto, err)
	}
	return nil
}

func decodeBool(d *record.Decoder, what string) bool {
	switch d.Byte(what) {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail(what)
	return false
}

// payload takes the rest of the body as the frame's payload, copying it
// out of a body that lives in the read buffer.
func payload(d *record.Decoder, owned bool) []byte {
	rest := d.Rest()
	if len(rest) == 0 {
		return nil
	}
	if owned {
		return rest
	}
	return bytes.Clone(rest)
}

// readFrame reads one frame and checks its length bound and checksum
// before anything in the body is trusted. A body that fits br's buffer
// is returned in place, valid only until the next read (owned false);
// a bigger one is read into a slice of its own. EOF at a frame boundary
// is io.EOF; EOF inside a frame is io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader) (body []byte, owned bool, err error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return nil, false, midFrame(err, len(hdr) > 0)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return nil, false, errFrameSize
	}
	if size := frameHeader + int(n); size <= br.Size() {
		frame, err := br.Peek(size)
		if err != nil {
			return nil, false, midFrame(err, true)
		}
		br.Discard(size)
		body = frame[frameHeader:]
	} else {
		br.Discard(frameHeader)
		if body, err = readBody(br, int(n)); err != nil {
			return nil, false, midFrame(err, true)
		}
		owned = true
	}
	if record.Sum(body) != sum {
		return nil, false, errSum
	}
	return body, owned, nil
}

// bodyChunk bounds how far a body's buffer grows ahead of the bytes
// that have actually arrived, so a length that promises a huge frame
// costs memory only as the peer delivers it.
const bodyChunk = 1 << 20

// readBody reads an n-byte body that does not fit the read buffer.
func readBody(br *bufio.Reader, n int) ([]byte, error) {
	var body []byte
	for len(body) < n {
		m := min(n-len(body), bodyChunk)
		body = slices.Grow(body, m)
		if _, err := io.ReadFull(br, body[len(body):len(body)+m]); err != nil {
			return nil, err
		}
		body = body[:len(body)+m]
	}
	return body, nil
}

// midFrame reports EOF after part of a frame as a truncated frame.
func midFrame(err error, started bool) error {
	if started && errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
