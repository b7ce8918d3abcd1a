package text

import (
	"math/rand"
	"testing"
)

// checkLineIndex asserts that every line query answered from the
// incremental newline index agrees with a naive rescan of the contents.
func checkLineIndex(t *testing.T, b *Buffer) {
	t.Helper()
	s := []rune(b.String())
	var nl []int
	for i, r := range s {
		if r == '\n' {
			nl = append(nl, i)
		}
	}
	// NLines: count of lines, a trailing newline not starting a new one.
	wantN := 1
	if len(s) > 0 {
		wantN = len(nl) + 1
		if nl != nil && nl[len(nl)-1] == len(s)-1 {
			wantN = len(nl)
		}
	}
	if got := b.NLines(); got != wantN {
		t.Fatalf("NLines = %d, naive rescan says %d (%q)", got, wantN, string(s))
	}
	// LineAt: one more than the newlines strictly before the offset.
	line := 1
	for off := 0; off <= len(s); off++ {
		if got := b.LineAt(off); got != line {
			t.Fatalf("LineAt(%d) = %d, naive rescan says %d (%q)", off, got, line, string(s))
		}
		if off < len(s) && s[off] == '\n' {
			line++
		}
	}
	// LineStart / LineEnd for every line, plus addresses past the end.
	for ln := 1; ln <= line+2; ln++ {
		wantStart := len(s)
		if ln <= 1 {
			wantStart = 0
		} else if ln-2 < len(nl) {
			wantStart = nl[ln-2] + 1
		}
		if got := b.LineStart(ln); got != wantStart {
			t.Fatalf("LineStart(%d) = %d, naive rescan says %d (%q)", ln, got, wantStart, string(s))
		}
		wantEnd := wantStart
		for wantEnd < len(s) && s[wantEnd] != '\n' {
			wantEnd++
		}
		if got := b.LineEnd(ln); got != wantEnd {
			t.Fatalf("LineEnd(%d) = %d, naive rescan says %d (%q)", ln, got, wantEnd, string(s))
		}
	}
}

// applyIndexScript drives b through a byte-coded edit sequence, verifying
// the line index against a naive rescan after every operation.
func applyIndexScript(t *testing.T, b *Buffer, script []byte) {
	t.Helper()
	checkLineIndex(t, b)
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%6, int(script[i+1])
		switch op {
		case 0:
			b.Insert(arg%(b.Len()+1), "ab\ncd\n")
		case 1:
			b.Insert(arg%(b.Len()+1), "xyz")
		case 2:
			b.Insert(arg%(b.Len()+1), "\n")
		case 3:
			if b.Len() > 0 {
				off := arg % b.Len()
				b.Delete(off, arg%(b.Len()-off+1))
			}
		case 4:
			if !b.Undo() {
				b.Commit()
			}
		case 5:
			if !b.Redo() {
				b.Commit()
			}
		}
		checkLineIndex(t, b)
	}
}

// TestLineIndexProperty is the deterministic slice of the fuzz target: a
// seeded random walk of edits with the index checked after every step.
func TestLineIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		script := make([]byte, 60)
		rng.Read(script)
		initial := ""
		for i := 0; i < rng.Intn(100); i++ {
			initial += string(rune("a\nb\nc"[rng.Intn(5)]))
		}
		b := NewBuffer(initial)
		applyIndexScript(t, b, script)
	}
}

// FuzzLineIndex applies arbitrary edit scripts and asserts the incremental
// line index always agrees with a naive rescan: the equivalence proof for
// the cached answers.
func FuzzLineIndex(f *testing.F) {
	f.Add("line1\nline2\n", []byte{0, 3, 3, 7, 4, 0})
	f.Add("", []byte{2, 0, 2, 1, 3, 2})
	f.Add("no newline at all", []byte{1, 9, 3, 4, 5, 0})
	f.Add("\n\n\n", []byte{3, 1, 0, 0, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, initial string, script []byte) {
		if len(initial) > 2048 || len(script) > 128 {
			return
		}
		b := NewBuffer(initial)
		applyIndexScript(t, b, script)
	})
}

// FuzzAddress resolves arbitrary address strings against arbitrary
// buffers; malformed addresses must error, never panic, and results must
// stay in range.
func FuzzAddress(f *testing.F) {
	f.Add("line1\nline2\n", "2")
	f.Add("hello", "#3")
	f.Add("find me", "/me/")
	f.Add("", "")
	f.Add("x", "#999")
	f.Add("x", "/missing/")
	f.Add("x", "notanaddr")
	f.Fuzz(func(t *testing.T, content, addr string) {
		if len(content) > 4096 || len(addr) > 64 {
			return
		}
		b := NewBuffer(content)
		q0, q1, err := b.Address(addr)
		if err != nil {
			return
		}
		if q0 < 0 || q1 < q0 || q1 > b.Len() {
			t.Fatalf("Address(%q) on %q = [%d,%d) out of [0,%d]", addr, content, q0, q1, b.Len())
		}
	})
}

// invalidRunes are rune values that are not code points. No decoded
// string yields them, so tests insert them below Insert; the encoder
// must write each as U+FFFD, as string([]rune) does.
var invalidRunes = []rune{0xD800, 'é', -1, 0x110000, '\n', 0xDFFF}

// refSlice is the encoder's reference: the runes the backing holds in
// the clamped range, read one at a time and encoded by string().
func refSlice(b *Buffer, off, n int) string {
	off, n = b.clamp(off, n)
	var rs []rune
	for i := off; i < off+n; i++ {
		rs = append(rs, b.bk().at(i))
	}
	return string(rs)
}

// checkAppendUTF8 asserts that AppendUTF8 (after a prefix already in
// dst) and Slice encode ranges exactly as string() encodes the runes
// stored there. The ranges end at, start at and straddle every storage
// seam — the gap of a gap buffer; the piece and page boundaries of a
// paged one — and the buffer's ends, with some clamped past them.
func checkAppendUTF8(t *testing.T, b *Buffer) {
	t.Helper()
	n := b.Len()
	seams := []int{0, n}
	switch bk := b.back.(type) {
	case *memBacking:
		seams = append(seams, bk.gapStart)
	case *pagedBacking:
		for i, pc := range bk.pieces {
			seams = append(seams, bk.cumR[i])
			if pc.add {
				continue
			}
			for no := bk.idx.pageOfRune(pc.fr0) + 1; no < bk.idx.npages() && bk.idx.cumR[no] < pc.fr0+pc.n; no++ {
				seams = append(seams, bk.cumR[i]+bk.idx.cumR[no]-pc.fr0)
			}
		}
	}
	for _, s := range seams {
		for _, r := range [][2]int{{s - 3, 3}, {s, 3}, {s - 2, 5}, {s - 1, 19}} {
			want := refSlice(b, r[0], r[1])
			if got := b.AppendUTF8([]byte("<"), r[0], r[1]); string(got) != "<"+want {
				t.Fatalf("AppendUTF8(%d, %d) = %q, want %q", r[0], r[1], got[1:], want)
			}
			if got := b.Slice(r[0], r[1]); got != want {
				t.Fatalf("Slice(%d, %d) = %q, want %q", r[0], r[1], got, want)
			}
		}
	}
	if got, want := b.String(), refSlice(b, 0, n); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := b.ByteLen(); got != int64(len(b.String())) {
		t.Fatalf("ByteLen = %d, want %d", got, len(b.String()))
	}
}

// FuzzEditSequence applies a byte-coded edit script; the buffer must stay
// internally consistent, encode every range like string(), and undo
// must restore the starting state.
func FuzzEditSequence(f *testing.F) {
	f.Add("seed text", []byte{0, 5, 1, 2, 2})
	f.Add("", []byte{0, 0, 0, 1})
	// "ab" inserted at 4 leaves the gap at 6; then deletes of [3,6),
	// [6,10) and [5,10) end at, start at and straddle it, and [1,2) and
	// [8,10) lie before and after it.
	f.Add("0123456789", []byte{0, 4, 1, 3})
	f.Add("0123456789", []byte{0, 4, 1, 18})
	f.Add("0123456789", []byte{0, 4, 1, 5})
	f.Add("0123456789", []byte{0, 4, 1, 1})
	f.Add("0123456789", []byte{0, 4, 1, 32})
	f.Add("a\xffb", []byte{3, 1, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, initial string, script []byte) {
		if len(initial) > 1024 || len(script) > 256 {
			return
		}
		b := NewBuffer(initial)
		before := b.String()
		b.Commit()
		edits := 0
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%4, int(script[i+1])
			switch op {
			case 0:
				b.Insert(arg%(b.Len()+1), "ab")
				edits++
			case 3:
				b.insert(arg%(b.Len()+1), invalidRunes, "")
				edits++
			case 1:
				if b.Len() > 0 {
					off := arg % b.Len()
					n := arg % (b.Len() - off + 1)
					b.Delete(off, n)
					if n > 0 {
						edits++
					}
				}
			case 2:
				b.Commit()
			}
			checkAppendUTF8(t, b)
		}
		if b.Len() < 0 {
			t.Fatal("negative length")
		}
		for b.Undo() {
		}
		if b.String() != before {
			t.Fatalf("undo-all: %q != %q", b.String(), before)
		}
	})
}
