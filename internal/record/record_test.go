package record

import (
	"encoding/binary"
	"testing"
)

// A varint decodes only in its minimal form, so a body that decodes
// re-encodes to the same bytes.
func TestVarintMustBeMinimal(t *testing.T) {
	d := NewDecoder([]byte{0x80, 0x00})
	if v := d.Uvarint("n"); v != 0 || d.Err() == nil {
		t.Fatalf("overlong zero: v=%d err=%v, want a failure", v, d.Err())
	}
	for _, v := range []int64{0, 1, -1, 63, -64, 300, -1 << 40} {
		d := NewDecoder(binary.AppendVarint(nil, v))
		if got := d.Varint("v"); got != v || d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("varint %d: got %d err=%v", v, got, d.Err())
		}
	}
}

// The first failure sticks: later reads return zero values, Err names
// the field that failed first, and nothing reads past the end.
func TestDecoderFailureSticks(t *testing.T) {
	b := binary.AppendUvarint(nil, 5) // a length promising 5 bytes, none follow
	d := NewDecoder(b)
	if s := d.String("name"); s != "" {
		t.Fatalf("short string = %q", s)
	}
	if c := d.Byte("next"); c != 0 {
		t.Fatalf("read after failure = %d", c)
	}
	if d.Rest() != nil {
		t.Fatal("Rest after failure returned bytes")
	}
	if err := d.Err(); err == nil || err.Error() != "bad name" {
		t.Fatalf("err = %v, want bad name", err)
	}
}
