package text

import (
	"fmt"
	"io"
)

// readerChunk is how many runes a ByteReader encodes per backing fetch.
const readerChunk = 4096

// ByteReader adapts a Buffer to io.ReaderAt over its UTF-8 encoding, so
// the file interface can serve body bytes straight from piece slices
// without materializing String(). It encodes readerChunk runes at a time
// with AppendUTF8: sequential reads continue from the last chunk in
// O(bytes), and a random seek costs one byte→rune resolution in the
// backing.
//
// The reader tracks the buffer's generation: any edit drops the chunk
// and the next read re-seeks, observing the current contents (reads
// through the file interface are live, matching the snapshot-free
// semantics a paged buffer can afford).
//
// ByteReader is not safe for concurrent use; like the Buffer itself it
// relies on the session's serialized event loop.
type ByteReader struct {
	b   *Buffer
	gen uint64

	// buf is the encoding of the runes before next, starting at byte
	// offset bufOff. It is empty before the first read and after an
	// edit.
	buf    []byte
	bufOff int64
	next   int
}

// NewByteReader returns a reader over b.
func NewByteReader(b *Buffer) *ByteReader {
	return &ByteReader{b: b, gen: b.Gen()}
}

// Size returns the buffer's UTF-8 encoded length in bytes.
func (r *ByteReader) Size() int64 { return r.b.ByteLen() }

// ReadAt implements io.ReaderAt: it fills p with the buffer's UTF-8
// encoding starting at byte offset off, returning io.EOF when the
// buffer ends before p is full.
func (r *ByteReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("text: negative read offset %d", off)
	}
	if g := r.b.Gen(); g != r.gen {
		r.gen = g
		r.buf = r.buf[:0]
	}
	n := 0
	for n < len(p) {
		at := off + int64(n)
		end := r.bufOff + int64(len(r.buf))
		if len(r.buf) > 0 && r.bufOff <= at && at < end {
			n += copy(p[n:], r.buf[at-r.bufOff:])
			continue
		}
		if len(r.buf) > 0 && at == end {
			r.fill(r.next, end) // sequential: encode the runes that follow
		} else {
			// A seek; off may land inside a multi-byte rune, whose
			// remaining bytes are then the first served.
			runeOff, runeStart := r.b.bk().seekByte(at)
			r.fill(runeOff, runeStart)
		}
		if len(r.buf) == 0 {
			break // end of buffer
		}
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// fill encodes up to readerChunk runes from rune offset from, whose
// encoding starts at byte offset byteOff.
func (r *ByteReader) fill(from int, byteOff int64) {
	r.buf = r.b.AppendUTF8(r.buf[:0], from, readerChunk)
	r.bufOff = byteOff
	r.next = min(from+readerChunk, r.b.Len())
}
