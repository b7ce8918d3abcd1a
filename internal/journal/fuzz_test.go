package journal

import (
	"testing"
)

// FuzzJournalDecode throws arbitrary bytes at every decoding surface a
// crash can expose: op payloads, whole segments (both mid-sequence and
// final), checkpoints, and the boundary scanner. The property under
// test is absolute: no input panics, and any op that decodes survives
// an encode/decode round trip unchanged (nothing is half-believed).
func FuzzJournalDecode(f *testing.F) {
	for _, op := range []Op{
		{Kind: OpSplice, Gen: 1, Win: 2, Sub: 1, P0: 3, P1: 4, Str1: "hello"},
		{Kind: OpSnarf, Gen: 9, Str1: "snarf", Str2: "aux"},
		{Kind: OpFile, Gen: 1 << 40, P0: 2, Str1: "/a/b"},
	} {
		f.Add(appendOpPayload(nil, &op))
		seg := appendSegmentHeader(nil, 0)
		f.Add(append(seg, EncodeOp(&op)...))
		f.Add(encodeCheckpoint(op.Gen, appendOpPayload(nil, &op)))
	}
	f.Add([]byte(segMagic))
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, b []byte) {
		if op, err := decodeOpPayload(b); err == nil {
			// Varints may arrive non-minimally encoded, so compare ops,
			// not bytes.
			got, err := decodeOpPayload(appendOpPayload(nil, &op))
			if err != nil || got != op {
				t.Fatalf("round trip diverged: %+v -> %+v (%v)", op, got, err)
			}
		}
		decodeSegment("wal-00000000000000000000.log", b, true)
		decodeSegment("wal-00000000000000000000.log", b, false)
		decodeCheckpoint(b)
		for _, e := range RecordEnds(b) {
			if e < segHeaderLen || e > len(b) {
				t.Fatalf("RecordEnds offset %d out of range", e)
			}
		}

		// A fuzzed byte string must also survive the full store path:
		// treat b as a segment tail grafted onto a valid journal.
		fs := NewMemFS()
		w, err := Open(fs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		w.Append(&Op{Kind: OpScroll, Win: 1})
		w.Flush()
		w.Close()
		seg, _ := fs.ReadFile(segmentName(0))
		fs.WriteFile(segmentName(0), append(seg, b...))
		Load(fs) // must not panic, any error is fine
	})
}
