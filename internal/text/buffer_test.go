package text

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEmptyBuffer(t *testing.T) {
	var b Buffer
	if b.Len() != 0 {
		t.Errorf("Len = %d", b.Len())
	}
	if b.String() != "" {
		t.Errorf("String = %q", b.String())
	}
	if b.Modified() {
		t.Error("zero buffer should be unmodified")
	}
	if b.NLines() != 1 {
		t.Errorf("NLines = %d, want 1", b.NLines())
	}
}

func TestNewBufferNotModified(t *testing.T) {
	b := NewBuffer("hello")
	if b.Modified() {
		t.Error("fresh buffer should be unmodified")
	}
	if b.CanUndo() {
		t.Error("initial content should not be undoable")
	}
	if b.String() != "hello" {
		t.Errorf("String = %q", b.String())
	}
}

func TestInsertDelete(t *testing.T) {
	b := NewBuffer("hello world")
	b.Insert(5, ",")
	if got := b.String(); got != "hello, world" {
		t.Errorf("after insert: %q", got)
	}
	if !b.Modified() {
		t.Error("insert should mark modified")
	}
	removed := b.Delete(5, 1)
	if removed != "," {
		t.Errorf("Delete returned %q", removed)
	}
	if got := b.String(); got != "hello world" {
		t.Errorf("after delete: %q", got)
	}
}

func TestInsertAtEnds(t *testing.T) {
	b := NewBuffer("bc")
	b.Insert(0, "a")
	b.Insert(3, "d")
	if got := b.String(); got != "abcd" {
		t.Errorf("got %q", got)
	}
}

func TestInsertEmptyNoop(t *testing.T) {
	b := NewBuffer("x")
	b.Insert(0, "")
	if b.Modified() {
		t.Error("empty insert should not modify")
	}
	if b.Delete(0, 0) != "" {
		t.Error("zero delete should return empty")
	}
}

func TestUnicode(t *testing.T) {
	b := NewBuffer("héllo")
	if b.Len() != 5 {
		t.Errorf("Len = %d, want 5 runes", b.Len())
	}
	if b.At(1) != 'é' {
		t.Errorf("At(1) = %q", b.At(1))
	}
	b.Insert(5, "…")
	if got := b.String(); got != "héllo…" {
		t.Errorf("got %q", got)
	}
}

func TestSlice(t *testing.T) {
	b := NewBuffer("abcdef")
	cases := []struct {
		off, n int
		want   string
	}{
		{0, 3, "abc"},
		{3, 3, "def"},
		{4, 10, "ef"}, // clamped
		{-2, 4, "ab"}, // negative start clamped
		{10, 3, ""},   // past end
		{2, 0, ""},    // zero length
		{0, 6, "abcdef"},
	}
	for _, c := range cases {
		if got := b.Slice(c.off, c.n); got != c.want {
			t.Errorf("Slice(%d,%d) = %q, want %q", c.off, c.n, got, c.want)
		}
	}
}

func TestUndoRedoSingle(t *testing.T) {
	b := NewBuffer("abc")
	b.Commit()
	b.Insert(3, "def")
	if !b.Undo() {
		t.Fatal("Undo returned false")
	}
	if got := b.String(); got != "abc" {
		t.Errorf("after undo: %q", got)
	}
	if !b.Redo() {
		t.Fatal("Redo returned false")
	}
	if got := b.String(); got != "abcdef" {
		t.Errorf("after redo: %q", got)
	}
}

func TestUndoTransaction(t *testing.T) {
	b := NewBuffer("hello")
	b.Replace(0, 5, "goodbye") // single transaction
	if got := b.String(); got != "goodbye" {
		t.Fatalf("after replace: %q", got)
	}
	b.Undo()
	if got := b.String(); got != "hello" {
		t.Errorf("after undo of replace: %q", got)
	}
	b.Redo()
	if got := b.String(); got != "goodbye" {
		t.Errorf("after redo of replace: %q", got)
	}
}

func TestUndoEmpty(t *testing.T) {
	var b Buffer
	if b.Undo() {
		t.Error("Undo on empty log should return false")
	}
	if b.Redo() {
		t.Error("Redo on empty log should return false")
	}
}

func TestRedoClearedByEdit(t *testing.T) {
	b := NewBuffer("a")
	b.Commit()
	b.Insert(1, "b")
	b.Undo()
	if !b.CanRedo() {
		t.Fatal("should be able to redo")
	}
	b.Insert(1, "c")
	if b.CanRedo() {
		t.Error("new edit should clear redo stack")
	}
}

func TestUndoSequence(t *testing.T) {
	b := NewBuffer("")
	for _, s := range []string{"one ", "two ", "three "} {
		b.Commit()
		b.Insert(b.Len(), s)
	}
	want := []string{"one two three ", "one two ", "one ", ""}
	for i := 1; i < len(want); i++ {
		b.Undo()
		if got := b.String(); got != want[i] {
			t.Errorf("undo %d: %q, want %q", i, got, want[i])
		}
	}
	for i := len(want) - 2; i >= 0; i-- {
		b.Redo()
		if got := b.String(); got != want[i] {
			t.Errorf("redo to %d: %q, want %q", i, got, want[i])
		}
	}
}

func TestLines(t *testing.T) {
	b := NewBuffer("first\nsecond\nthird")
	if b.NLines() != 3 {
		t.Errorf("NLines = %d", b.NLines())
	}
	if off := b.LineStart(1); off != 0 {
		t.Errorf("LineStart(1) = %d", off)
	}
	if off := b.LineStart(2); off != 6 {
		t.Errorf("LineStart(2) = %d", off)
	}
	if off := b.LineEnd(2); off != 12 {
		t.Errorf("LineEnd(2) = %d", off)
	}
	if off := b.LineStart(99); off != b.Len() {
		t.Errorf("LineStart(99) = %d, want Len", off)
	}
	if ln := b.LineAt(0); ln != 1 {
		t.Errorf("LineAt(0) = %d", ln)
	}
	if ln := b.LineAt(6); ln != 2 {
		t.Errorf("LineAt(6) = %d", ln)
	}
	if ln := b.LineAt(999); ln != 3 {
		t.Errorf("LineAt(999) = %d", ln)
	}
}

func TestNLinesTrailingNewline(t *testing.T) {
	if n := NewBuffer("a\nb\n").NLines(); n != 2 {
		t.Errorf("NLines with trailing newline = %d, want 2", n)
	}
	if n := NewBuffer("\n").NLines(); n != 1 {
		t.Errorf("NLines single newline = %d, want 1", n)
	}
}

func TestAddressLine(t *testing.T) {
	b := NewBuffer("aa\nbb\ncc")
	q0, q1, err := b.Address("2")
	if err != nil || q0 != 3 || q1 != 5 {
		t.Errorf("Address(2) = %d,%d,%v", q0, q1, err)
	}
	// Line numbers beyond the end clamp to buffer end.
	q0, q1, err = b.Address("9")
	if err != nil || q0 != b.Len() || q1 != b.Len() {
		t.Errorf("Address(9) = %d,%d,%v", q0, q1, err)
	}
	q0, q1, err = b.Address("0")
	if err != nil || q0 != 0 {
		t.Errorf("Address(0) = %d,%d,%v", q0, q1, err)
	}
}

func TestAddressOffset(t *testing.T) {
	b := NewBuffer("hello")
	q0, q1, err := b.Address("#3")
	if err != nil || q0 != 3 || q1 != 3 {
		t.Errorf("Address(#3) = %d,%d,%v", q0, q1, err)
	}
	q0, _, err = b.Address("#99")
	if err != nil || q0 != 5 {
		t.Errorf("Address(#99) = %d,%v, want clamp to 5", q0, err)
	}
}

func TestAddressPattern(t *testing.T) {
	b := NewBuffer("the quick brown fox")
	q0, q1, err := b.Address("/brown/")
	if err != nil || q0 != 10 || q1 != 15 {
		t.Errorf("Address(/brown/) = %d,%d,%v", q0, q1, err)
	}
	if _, _, err := b.Address("/absent/"); err != ErrNoMatch {
		t.Errorf("missing pattern err = %v", err)
	}
	if _, _, err := b.Address("//"); err == nil {
		t.Error("empty pattern should error")
	}
}

func TestAddressPatternUnicode(t *testing.T) {
	b := NewBuffer("héllo wörld")
	q0, q1, err := b.Address("/wörld/")
	if err != nil || q0 != 6 || q1 != 11 {
		t.Errorf("unicode pattern = %d,%d,%v (want rune offsets 6,11)", q0, q1, err)
	}
}

func TestAddressBad(t *testing.T) {
	b := NewBuffer("x")
	if _, _, err := b.Address("#x"); err == nil {
		t.Error("bad #addr should error")
	}
	if _, _, err := b.Address("zz"); err == nil {
		t.Error("bad line addr should error")
	}
	if q0, q1, err := b.Address(""); err != nil || q0 != 0 || q1 != 0 {
		t.Errorf("empty addr = %d,%d,%v", q0, q1, err)
	}
}

func TestSetString(t *testing.T) {
	b := NewBuffer("old stuff")
	b.SetString("new")
	if b.String() != "new" {
		t.Errorf("got %q", b.String())
	}
	b.Undo()
	if b.String() != "old stuff" {
		t.Errorf("undo of SetString: %q", b.String())
	}
}

func TestSetCleanModified(t *testing.T) {
	b := NewBuffer("x")
	b.Insert(1, "y")
	if !b.Modified() {
		t.Fatal("want modified")
	}
	b.SetClean()
	if b.Modified() {
		t.Fatal("want clean after SetClean")
	}
	b.Delete(0, 1)
	if !b.Modified() {
		t.Fatal("delete should re-modify")
	}
}

// Undoing every edit back to the last-clean state must restore
// Modified() == false, so the tag stops offering Put! for an unchanged
// file; redoing forward to the clean state must do the same.
func TestUndoToCleanRestoresUnmodified(t *testing.T) {
	b := NewBuffer("base")
	b.Insert(4, " one")
	b.Commit()
	b.SetClean() // as after a Put!
	b.Insert(8, " two")
	b.Commit()
	if !b.Modified() {
		t.Fatal("edit after SetClean must modify")
	}
	if !b.Undo() {
		t.Fatal("undo failed")
	}
	if b.Modified() {
		t.Errorf("undo back to clean state: Modified() = true, body %q", b.String())
	}
	if !b.Redo() {
		t.Fatal("redo failed")
	}
	if !b.Modified() {
		t.Error("redo past clean state must re-modify")
	}
	if !b.Undo() {
		t.Fatal("second undo failed")
	}
	if b.Modified() {
		t.Error("undo to clean a second time must be clean again")
	}
	// Undo past the clean state: older contents are modified too.
	if !b.Undo() {
		t.Fatal("undo past clean failed")
	}
	if !b.Modified() {
		t.Error("undo past the clean state must be modified")
	}
	// Redo forward onto the clean state again.
	if !b.Redo() {
		t.Fatal("redo to clean failed")
	}
	if b.Modified() {
		t.Error("redo forward to clean state must be clean")
	}
}

// A fresh edit truncates the redo history; if the clean state lived
// there, no undo position is clean any more.
func TestCleanStateLostByTruncatedRedo(t *testing.T) {
	b := NewBuffer("x")
	b.Insert(1, "a")
	b.Commit()
	b.Insert(2, "b")
	b.Commit()
	b.SetClean() // clean at "xab"
	b.Undo()     // back to "xa"; clean state now in redo
	b.Insert(2, "c")
	b.Commit() // redo truncated: "xab" unreachable
	for b.Undo() {
	}
	if !b.Modified() {
		t.Error("clean state was truncated; no undo position may be clean")
	}
	for b.Redo() {
	}
	if !b.Modified() {
		t.Error("clean state was truncated; no redo position may be clean")
	}
}

// SetDirty forces modified without an edit; undo cannot clean it.
func TestSetDirtySticksAcrossUndo(t *testing.T) {
	b := NewBuffer("x")
	b.Insert(1, "y")
	b.Commit()
	b.SetClean()
	b.SetDirty()
	if !b.Modified() {
		t.Fatal("SetDirty must modify")
	}
	b.Undo()
	if !b.Modified() {
		t.Error("undo must not clear a forced dirty state")
	}
	b.SetClean()
	if b.Modified() {
		t.Error("SetClean must clear a forced dirty state")
	}
}

// Gen must change whenever contents change, including via undo/redo, and
// hold still across queries: frames rely on it as a damage check.
func TestGenTracksEdits(t *testing.T) {
	b := NewBuffer("hello\nworld")
	g0 := b.Gen()
	_ = b.String()
	_ = b.NLines()
	_ = b.LineStart(2)
	if b.Gen() != g0 {
		t.Fatal("queries must not bump Gen")
	}
	b.Insert(0, "a")
	g1 := b.Gen()
	if g1 == g0 {
		t.Fatal("Insert must bump Gen")
	}
	b.Delete(0, 1)
	g2 := b.Gen()
	if g2 == g1 {
		t.Fatal("Delete must bump Gen")
	}
	b.Undo()
	if b.Gen() == g2 {
		t.Fatal("Undo must bump Gen")
	}
}

// Slice's bulk fast path must behave identically with the gap in every
// position relative to the requested range.
func TestSliceAcrossGap(t *testing.T) {
	const content = "0123456789"
	for gapAt := 0; gapAt <= len(content); gapAt++ {
		b := NewBuffer(content)
		// Position the gap by inserting and deleting at gapAt.
		b.Insert(gapAt, "X")
		b.Delete(gapAt, 1)
		if b.String() != content {
			t.Fatalf("setup: %q", b.String())
		}
		for off := 0; off <= len(content); off++ {
			for n := 0; n <= len(content)-off; n++ {
				if got, want := b.Slice(off, n), content[off:off+n]; got != want {
					t.Fatalf("gap@%d Slice(%d,%d) = %q, want %q", gapAt, off, n, got, want)
				}
			}
		}
	}
}

// Gap-buffer stress: random edits must match a reference []rune model.
func TestGapBufferAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuffer("")
	var model []rune
	alphabet := "abcdefghij\n"
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			off := rng.Intn(len(model) + 1)
			n := 1 + rng.Intn(5)
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			s := sb.String()
			b.Insert(off, s)
			model = append(model[:off], append([]rune(s), model[off:]...)...)
		} else {
			off := rng.Intn(len(model))
			n := rng.Intn(len(model) - off + 1)
			got := b.Delete(off, n)
			want := string(model[off : off+n])
			if got != want {
				t.Fatalf("step %d: Delete returned %q, want %q", i, got, want)
			}
			model = append(model[:off], model[off+n:]...)
		}
		if b.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", i, b.Len(), len(model))
		}
	}
	if b.String() != string(model) {
		t.Fatalf("final mismatch:\n%q\n%q", b.String(), model)
	}
}

// Property: undo is an exact inverse of a random transaction.
func TestUndoInverseProperty(t *testing.T) {
	f := func(initial string, off1 uint8, ins string, del uint8) bool {
		b := NewBuffer(initial)
		before := b.String()
		b.Commit()
		o := int(off1) % (b.Len() + 1)
		b.Insert(o, ins)
		d := int(del) % (b.Len() - o + 1)
		b.Delete(o, d)
		if !b.CanUndo() && (len(ins) > 0 || d > 0) {
			return false
		}
		if len(ins) == 0 && d == 0 {
			return b.String() == before
		}
		b.Undo()
		return b.String() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: undo followed by redo restores the edited state.
func TestRedoInverseProperty(t *testing.T) {
	f := func(initial, ins string, off uint8) bool {
		if len(ins) == 0 {
			return true
		}
		b := NewBuffer(initial)
		b.Commit()
		b.Insert(int(off)%(b.Len()+1), ins)
		after := b.String()
		b.Undo()
		b.Redo()
		return b.String() == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: LineStart is monotone in the line number.
func TestLineStartMonotone(t *testing.T) {
	f := func(s string) bool {
		b := NewBuffer(s)
		prev := -1
		for ln := 1; ln <= b.NLines()+2; ln++ {
			off := b.LineStart(ln)
			if off < prev {
				return false
			}
			prev = off
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LineAt(LineStart(n)) == n for lines that exist.
func TestLineRoundTrip(t *testing.T) {
	f := func(s string) bool {
		b := NewBuffer(s)
		for ln := 1; ln <= b.NLines(); ln++ {
			start := b.LineStart(ln)
			if start < b.Len() && b.LineAt(start) != ln {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range should panic")
		}
	}()
	NewBuffer("ab").At(5)
}

func TestDeletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Delete out of range should panic")
		}
	}()
	NewBuffer("ab").Delete(1, 5)
}

func BenchmarkInsertSequential(b *testing.B) {
	buf := NewBuffer("")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Insert(buf.Len(), "x")
	}
}

// BenchmarkInsertRandom inserts one rune at a seeded offset and deletes
// one at another, so the buffer stays at 12,000 runes. Every 4,096
// iterations the buffer is reloaded outside the timer, dropping the
// undo log the edits accumulate, so ns/op does not depend on b.N.
func BenchmarkInsertRandom(b *testing.B) {
	const every = 4096
	initial := strings.Repeat("hello world\n", 1000)
	buf := NewBuffer(initial)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Insert(rng.Intn(buf.Len()+1), "y")
		buf.Delete(rng.Intn(buf.Len()), 1)
		if i%every == every-1 {
			b.StopTimer()
			buf.Load(initial)
			b.StartTimer()
		}
	}
}

func BenchmarkDeleteInsertChurn(b *testing.B) {
	buf := NewBuffer(strings.Repeat("0123456789", 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 37) % (buf.Len() - 10)
		buf.Delete(off, 5)
		buf.Insert(off, "abcde")
	}
}

func BenchmarkAddressLine(b *testing.B) {
	buf := NewBuffer(strings.Repeat("some line of text\n", 2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := buf.Address("1500"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpliceObserverText pins what the splice observer is handed: a
// delete passes "", and an insert passes string(<runes inserted>) —
// the caller's own string, not a copy, when it is valid UTF-8, and the
// runes' encoding (each invalid byte a U+FFFD) when it is not.
func TestSpliceObserverText(t *testing.T) {
	b := NewBuffer("start")
	var ins []string
	b.SetOnSplice(func(off, ndel int, s string) {
		if (ndel == 0) == (s == "") {
			t.Fatalf("splice(%d, %d, %q): exactly one of ndel and ins must be non-empty", off, ndel, s)
		}
		if s != "" {
			ins = append(ins, s)
		}
	})
	valid := "héllo\n"
	b.Insert(0, valid)
	if len(ins) != 1 || unsafe.StringData(ins[0]) != unsafe.StringData(valid) {
		t.Fatalf("valid Insert passed %q, want the caller's string itself", ins)
	}
	// "\xe2\x82" is a cut-off "€": two runes of U+FFFD, as is "\xff".
	bad := "a\xe2\x82b\xff"
	want := string([]rune(bad))
	for _, c := range []struct {
		name string
		edit func()
	}{
		{"Insert", func() { b.Insert(b.Len(), bad) }},
		{"SetString", func() { b.SetString(bad) }},
		{"Load", func() { b.Load(bad) }},
		{"ApplySplice", func() {
			if err := b.ApplySplice(0, b.Len(), bad); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		ins = nil
		c.edit()
		if len(ins) != 1 || ins[0] != want {
			t.Fatalf("%s of invalid UTF-8 passed %q, want [%q]", c.name, ins, want)
		}
	}
	b.Load("one")
	b.SetString("two")
	ins = nil
	b.Undo()
	b.Redo()
	if strings.Join(ins, "|") != "one|two" {
		t.Fatalf("undo/redo replay passed %q, want [one two]", ins)
	}
}
