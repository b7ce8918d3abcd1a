package srvnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/vfs"
)

// reqFrame and respFrame encode one frame through the codec, for tests
// that play a peer by hand.
func reqFrame(req request) []byte {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	if _, err := frameReq(bw, nil, &req); err != nil {
		panic(err)
	}
	bw.Flush()
	return b.Bytes()
}

func respFrame(resp response) []byte {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	if _, err := frameResp(bw, nil, &resp); err != nil {
		panic(err)
	}
	bw.Flush()
	return b.Bytes()
}

func decodeReqBytes(b []byte, size int) (request, error) {
	var req request
	err := readReq(bufio.NewReaderSize(bytes.NewReader(b), size), &req)
	return req, err
}

func decodeRespBytes(b []byte, size int) (response, error) {
	var resp response
	err := readResp(bufio.NewReaderSize(bytes.NewReader(b), size), &resp)
	return resp, err
}

// wireRequests and wireReplies hold one frame of every request op and
// every reply shape.
var (
	wireRequests = []request{
		{Seq: 1, Op: opRead, Path: "/a/b"},
		{Seq: 1<<63 + 7, Op: opReadAt, Path: "/big", Offset: 4096, Count: 65536},
		{Seq: 9, Op: opReadAt, Path: "/x", Offset: -1},
		{Seq: 10, Op: opReadWait, Path: "/mnt/help/log", Offset: 42, Wait: 30000},
		{Seq: 2, Op: opWrite, Path: "/w", Data: []byte("payload\x00\xff")},
		{Seq: 3, Op: opWrite, Path: "/w", Append: true, Data: []byte("more")},
		{Seq: 4, Op: opReadDir, Path: "/d"},
		{Seq: 5, Op: opStat, Path: "/d/f"},
		{Seq: 6, Op: opGlob, Pattern: "/d/*"},
		{Seq: 7, Op: opMkdir, Path: "/m/n"},
		{Seq: 8, Op: opRemove, Path: "/m/n"},
		{Seq: 11, Op: opAttach, Path: "sess-1"},
		{Seq: 12, Op: 0xee},
		{Seq: 13, Op: opRead, Path: `/quote"and\slash`},
		{Seq: 14, Op: opRead, Path: "/utf8/héllo"},
		{Seq: 15, Op: opRead, Path: "/bad-utf8/\xff\xfe"},
	}
	wireReplies = []response{
		{Seq: 1},
		{Seq: 2, Gen: 41, Data: []byte("file contents")},
		{Seq: 3, Err: "srvnet: no such file", Code: codeNotExist},
		{Seq: 4, Entries: []vfs.Info{{Name: "f", Size: 3, ModTime: -9, Gen: 2}, {Name: "sub", IsDir: true}}},
		{Seq: 5, Entries: []vfs.Info{{Name: "x", IsDir: true, Gen: 7}}, Gen: 7},
		{Seq: 6, Entries: []vfs.Info{{Name: "/a"}, {Name: `/b"\é`}}},
		{Seq: 7, Err: "srvnet: server busy", Code: codeBusy, Retry: 250},
		{Err: "srvnet: server draining", Code: codeDraining},
		{Seq: 8, Gen: 1<<64 - 1, Data: bytes.Repeat([]byte("z"), bodyChunk+wireBufSize)},
	}
)

// TestCodecRequestRoundTrip: every request op decodes to what was
// encoded, through a read buffer it fits in and one it does not.
func TestCodecRequestRoundTrip(t *testing.T) {
	for _, size := range []int{wireBufSize, 16} {
		for _, want := range wireRequests {
			got, err := decodeReqBytes(reqFrame(want), size)
			if err != nil {
				t.Fatalf("%+v: %v", want, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("request round trip\n got %+v\nwant %+v", got, want)
			}
		}
	}
}

// TestCodecResponseRoundTrip: every reply shape decodes to what was
// encoded, through a read buffer it fits in and one it does not.
func TestCodecResponseRoundTrip(t *testing.T) {
	for _, size := range []int{wireBufSize, 16} {
		for _, want := range wireReplies {
			got, err := decodeRespBytes(respFrame(want), size)
			if err != nil {
				t.Fatalf("%+v: %v", want, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reply round trip\n got %+v\nwant %+v", got, want)
			}
		}
	}
}

// TestReadFrame covers the framing edges: a frame bigger than the read
// buffer, EOF inside a frame, and a length past maxFrame.
func TestReadFrame(t *testing.T) {
	big := respFrame(response{Seq: 1, Data: bytes.Repeat([]byte("q"), 100)})
	br := bufio.NewReaderSize(bytes.NewReader(big), 16)
	body, owned, err := readFrame(br)
	if err != nil || !owned || len(body) != len(big)-frameHeader {
		t.Fatalf("big frame: len=%d owned=%v err=%v", len(body), owned, err)
	}
	if _, _, err := readFrame(br); err != io.EOF {
		t.Fatalf("clean end: err=%v want io.EOF", err)
	}

	for _, cut := range []int{3, frameHeader, len(big) - 1} {
		br = bufio.NewReaderSize(bytes.NewReader(big[:cut]), 16)
		if _, _, err := readFrame(br); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err=%v want ErrUnexpectedEOF", cut, err)
		}
	}

	flood := make([]byte, frameHeader)
	binary.BigEndian.PutUint32(flood, maxFrame+1)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(flood))); !errors.Is(err, errFrameSize) {
		t.Fatalf("oversized length: err=%v want errFrameSize", err)
	}

	// A length at the bound with a few bytes behind it is a truncated
	// frame, and costs memory only as bytes arrive.
	binary.BigEndian.PutUint32(flood, maxFrame)
	flood = append(flood, "short"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(flood))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("promised but missing body: err=%v want ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*bodyChunk {
		t.Fatalf("a %d-byte promise allocated %d bytes up front", maxFrame, grew)
	}
}

// TestChecksumCoversEveryByte: the CRC guards the whole body, so a
// header-only request and a readdir reply fail to decode whichever byte
// after the length is flipped — a damaged path or generation is never
// believed — and the Client surfaces the damage as ErrProto.
func TestChecksumCoversEveryByte(t *testing.T) {
	req := reqFrame(request{Seq: 1, Op: opRead, Path: "/mnt/help/3/body"})
	dir := respFrame(response{Seq: 1, Gen: 12, Entries: []vfs.Info{
		{Name: "body", Size: 40, ModTime: 3, Gen: 12},
		{Name: "tag", Size: 9, ModTime: 3, Gen: 4},
	}})
	for i := 4; i < len(req); i++ {
		bad := bytes.Clone(req)
		bad[i] ^= 0xff
		if _, err := decodeReqBytes(bad, wireBufSize); !errors.Is(err, ErrProto) {
			t.Fatalf("request byte %d flipped: err=%v want ErrProto", i, err)
		}
	}
	for i := 4; i < len(dir); i++ {
		bad := bytes.Clone(dir)
		bad[i] ^= 0xff
		if _, err := decodeRespBytes(bad, wireBufSize); !errors.Is(err, ErrProto) {
			t.Fatalf("reply byte %d flipped: err=%v want ErrProto", i, err)
		}
		if err := readDirAgainst(bad); !errors.Is(err, ErrProto) {
			t.Fatalf("reply byte %d flipped: client err=%v want ErrProto", i, err)
		}
	}
}

// readDirAgainst runs one Client.ReadDir against a peer that answers
// with reply, whatever the request.
func readDirAgainst(reply []byte) error {
	cside, sside := net.Pipe()
	defer sside.Close()
	go func() {
		var req request
		if readReq(bufio.NewReader(sside), &req) == nil {
			sside.Write(reply)
		}
	}()
	c := NewClient(cside)
	c.Timeout = 2 * time.Second
	defer c.Close()
	_, err := c.ReadDir("/d")
	return err
}

// FuzzWireFrame throws arbitrary bytes at both decoders, once as they
// come and once sealed under a valid length and checksum, so the field
// decoding behind the CRC is explored too. Nothing may panic; a length
// past maxFrame is refused before anything is allocated; and whatever
// decodes re-encodes to the same bytes, so no frame is half-believed.
func FuzzWireFrame(f *testing.F) {
	for _, req := range wireRequests {
		f.Add(reqFrame(req))
	}
	for _, resp := range wireReplies[:len(wireReplies)-1] {
		f.Add(respFrame(resp))
	}
	f.Add([]byte("this is not a frame"))

	var r bytes.Reader
	readers := []*bufio.Reader{bufio.NewReaderSize(&r, wireBufSize), bufio.NewReaderSize(&r, 16)}
	check := func(t *testing.T, b []byte) {
		var req request
		var resp response
		if len(b) >= frameHeader && binary.BigEndian.Uint32(b) > maxFrame {
			allocs := testing.AllocsPerRun(1, func() {
				r.Reset(b)
				readers[0].Reset(&r)
				if err := readReq(readers[0], &req); !errors.Is(err, errFrameSize) {
					t.Fatalf("oversized length: err=%v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("oversized length allocated %v times", allocs)
			}
			return
		}
		frame := b
		if len(b) >= frameHeader {
			if n := frameHeader + int(binary.BigEndian.Uint32(b)); n <= len(b) {
				frame = b[:n]
			}
		}
		for _, br := range readers {
			r.Reset(b)
			br.Reset(&r)
			if readReq(br, &req) == nil {
				if got := reqFrame(req); !bytes.Equal(got, frame) {
					t.Fatalf("request %+v re-encodes to\n%x\nnot\n%x", req, got, frame)
				}
			}
			r.Reset(b)
			br.Reset(&r)
			if readResp(br, &resp) == nil {
				if got := respFrame(resp); !bytes.Equal(got, frame) {
					t.Fatalf("reply %+v re-encodes to\n%x\nnot\n%x", resp, got, frame)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b)
		sealed := make([]byte, frameHeader, frameHeader+len(b))
		binary.BigEndian.PutUint32(sealed[0:4], uint32(len(b)))
		binary.BigEndian.PutUint32(sealed[4:8], record.Sum(b))
		check(t, append(sealed, b...))
	})
}

// TestStatReplyShape: a stat reply that does not carry exactly one
// entry is a protocol error, not a zero Info.
func TestStatReplyShape(t *testing.T) {
	if _, err := statInfo(response{Seq: 1}); !errors.Is(err, ErrProto) {
		t.Fatalf("empty stat reply: err=%v want ErrProto", err)
	}
	info, err := statInfo(response{Entries: []vfs.Info{{Name: "f", Size: 2, Gen: 3}}})
	if err != nil || info != (vfs.Info{Name: "f", Size: 2, Gen: 3}) {
		t.Fatalf("stat reply: %+v %v", info, err)
	}
}
