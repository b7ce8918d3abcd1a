package core

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/geom"
)

// pointOf locates the first occurrence of needle in w's body on screen.
// Render must have run.
func pointOf(t *testing.T, h *Help, w *Window, needle string) geom.Point {
	t.Helper()
	h.Render()
	body := w.Body.String()
	off := strings.Index(body, needle)
	if off < 0 {
		t.Fatalf("%q not in body %q", needle, body)
	}
	roff := len([]rune(body[:off]))
	f := w.frameFor(SubBody)
	if f == nil {
		t.Fatal("no body frame")
	}
	if !f.Visible(roff) {
		w.scrollTo(roff)
		h.Render()
		f = w.frameFor(SubBody)
	}
	p, ok := f.PointOf(roff)
	if !ok {
		t.Fatalf("offset %d of %q not visible", roff, needle)
	}
	return p
}

// tagPointOf locates needle in w's tag on screen.
func tagPointOf(t *testing.T, h *Help, w *Window, needle string) geom.Point {
	t.Helper()
	h.Render()
	tag := w.Tag.String()
	off := strings.Index(tag, needle)
	if off < 0 {
		t.Fatalf("%q not in tag %q", needle, tag)
	}
	p, ok := w.frameFor(SubTag).PointOf(len([]rune(tag[:off])))
	if !ok {
		t.Fatalf("tag offset not visible")
	}
	return p
}

func TestSweepSelectsText(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	from := pointOf(t, h, w, "int n;")
	to := from.Add(geom.Pt(5, 0))
	h.HandleAll(event.Sweep(event.Left, from, to))
	if got := w.SelectedText(SubBody); got != "int n" {
		t.Errorf("selected %q", got)
	}
	cw, csub := h.Current()
	if cw != w || csub != SubBody {
		t.Error("selection did not become current")
	}
}

func TestClickNullSelection(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	p := pointOf(t, h, w, "main")
	h.HandleAll(event.Click(event.Left, p))
	sel := w.Sel.Of(SubBody)
	if !sel.Empty() {
		t.Errorf("click selection = %+v", sel)
	}
	if w.Body.Slice(sel.Q0, 4) != "main" {
		t.Errorf("insertion point at %q", w.Body.Slice(sel.Q0, 4))
	}
}

func TestMiddleClickExecutesWholeWord(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	// Put a command word in a scratch window and middle-click inside it.
	scratch := h.NewWindow()
	scratch.Body.SetString("some Exit word")
	p := pointOf(t, h, scratch, "xit") // middle of "Exit"
	h.HandleAll(event.Click(event.Middle, p))
	if !h.Exited() {
		t.Error("middle click in word did not execute whole word")
	}
	_ = w
}

func TestMiddleSweepExecutesLiterally(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("Open /usr/rob/src/help/dat.h trailing")
	from := pointOf(t, h, w, "Open")
	to := from.Add(geom.Pt(len("Open /usr/rob/src/help/dat.h"), 0))
	h.HandleAll(event.Sweep(event.Middle, from, to))
	if h.WindowByName("/usr/rob/src/help/dat.h") == nil {
		t.Error("swept Open command did not run")
	}
}

func TestCutChordGesture(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("delete me now")
	from := pointOf(t, h, w, "delete")
	to := from.Add(geom.Pt(7, 0))
	// Sweep "delete " with left, then chord middle for Cut.
	h.HandleAll(event.SweepChord(event.Left, from, to, event.Middle))
	if w.Body.String() != "me now" {
		t.Errorf("body = %q", w.Body.String())
	}
	if h.Snarf() != "delete " {
		t.Errorf("snarf = %q", h.Snarf())
	}
}

func TestPasteChordGesture(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("cut this|")
	from := pointOf(t, h, w, "cut ")
	h.HandleAll(event.SweepChord(event.Left, from, from.Add(geom.Pt(4, 0)), event.Middle))
	if w.Body.String() != "this|" {
		t.Fatalf("after cut: %q", w.Body.String())
	}
	// Click at the bar and paste via chord.
	p := pointOf(t, h, w, "|")
	h.HandleAll(event.ChordClick(event.Left, p, event.Right))
	if w.Body.String() != "thiscut |" {
		t.Errorf("after paste: %q", w.Body.String())
	}
}

func TestCutThenPasteChordMove(t *testing.T) {
	// "One may even click the middle and then right buttons, while
	// holding the left down, to execute a cut-and-paste" — a no-op move
	// that loads the snarf buffer.
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("word stays")
	from := pointOf(t, h, w, "word")
	h.HandleAll(event.SweepChord(event.Left, from, from.Add(geom.Pt(4, 0)), event.Middle, event.Right))
	if w.Body.String() != "word stays" {
		t.Errorf("body = %q", w.Body.String())
	}
	if h.Snarf() != "word" {
		t.Errorf("snarf = %q", h.Snarf())
	}
}

func TestTypingReplacesSelection(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("abcdef")
	from := pointOf(t, h, w, "cd")
	h.HandleAll(event.Sweep(event.Left, from, from.Add(geom.Pt(2, 0))))
	// Mouse is over the selection; typing replaces it.
	h.HandleAll(event.Type("XY"))
	if w.Body.String() != "abXYef" {
		t.Errorf("body = %q", w.Body.String())
	}
	if h.Metrics().Keystrokes != 2 {
		t.Errorf("keystrokes = %d", h.Metrics().Keystrokes)
	}
}

func TestTypingNewlineIsJustACharacter(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("ab")
	p := pointOf(t, h, w, "b")
	h.HandleAll(event.Click(event.Left, p))
	h.HandleAll(event.Type("\n"))
	if w.Body.String() != "a\nb" {
		t.Errorf("body = %q", w.Body.String())
	}
	if h.Exited() {
		t.Error("newline must not execute anything")
	}
}

func TestBackspace(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("abc")
	p := pointOf(t, h, w, "c")
	h.HandleAll(event.Click(event.Left, p)) // insertion point before c
	h.HandleAll(event.Type("\b"))
	if w.Body.String() != "ac" {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestTagEditing(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/dat.h", "")
	p := tagPointOf(t, h, w, "dat.h")
	h.HandleAll(event.Click(event.Left, p))
	cw, csub := h.Current()
	if cw != w || csub != SubTag {
		t.Error("tag click did not set current subwindow")
	}
}

func TestWindowTabRevealGesture(t *testing.T) {
	h, _ := world(t)
	fsWrite(t, h, "/a", strings.Repeat("a\n", 30))
	fsWrite(t, h, "/b", strings.Repeat("b\n", 30))
	a, _ := h.OpenFile("/a", "")
	h.SetCurrent(a, SubBody)
	b, _ := h.OpenFile("/b", "")
	h.Reveal(a)
	if !b.hidden {
		t.Fatal("setup: b should be hidden")
	}
	h.Render()
	// b is the second window in the column (index 1): its tab is at
	// column top + 1.
	col := a.col
	tabPt := geom.Pt(col.r.Min.X, col.r.Min.Y+1)
	h.HandleAll(event.Click(event.Left, tabPt))
	if b.hidden {
		t.Error("tab click did not reveal window")
	}
}

func TestDragWindowGesture(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.Render()
	tagPt := tagPointOf(t, h, w, "help.c")
	dst := geom.Pt(60, 8)
	h.HandleAll(event.Drag(event.Right, tagPt, dst))
	if w.top != 8 {
		t.Errorf("top = %d", w.top)
	}
	if !dst.In(w.col.r) {
		t.Error("window not in destination column")
	}
}

func TestColumnTabExpandGesture(t *testing.T) {
	h, _ := world(t)
	h.Render()
	h.HandleAll(event.Click(event.Left, geom.Pt(0, 0)))
	if h.cols[0].r.Dx() <= h.cols[1].r.Dx() {
		t.Error("left column did not expand")
	}
}

func TestScrollBarGestures(t *testing.T) {
	h, _ := world(t)
	fsWrite(t, h, "/long", strings.Repeat("x\n", 200))
	w, _ := h.OpenFile("/long", "")
	h.Render()
	col := w.col
	barX := col.winRect().Min.X
	clickPt := geom.Pt(barX, w.top+5)
	// Right button scrolls forward.
	h.HandleAll(event.Click(event.Right, clickPt))
	if w.bodyOrg == 0 {
		t.Error("right click in scroll bar did not scroll")
	}
	org := w.bodyOrg
	// Left button scrolls back.
	h.HandleAll(event.Click(event.Left, clickPt))
	if w.bodyOrg >= org {
		t.Errorf("left click did not scroll back: %d -> %d", org, w.bodyOrg)
	}
	// Middle jumps proportionally: clicking near the bottom of the bar
	// lands deep in the file.
	span := col.visibleSpan(w)
	h.HandleAll(event.Click(event.Middle, geom.Pt(barX, w.top+span-1)))
	if ln := w.Body.LineAt(w.bodyOrg); ln < 100 {
		t.Errorf("middle jump landed at line %d", ln)
	}
}

func TestRunStopsOnExit(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("Exit New New")
	var s event.Stream
	p := pointOf(t, h, w, "Exit")
	s.Push(event.Click(event.Middle, p))
	// These would create windows if processed.
	s.Push(event.Click(event.Middle, p.Add(geom.Pt(5, 0))))
	h.Run(&s)
	if !h.Exited() {
		t.Fatal("Exit not executed")
	}
	if len(h.Windows()) != 1 {
		t.Errorf("windows = %d; events after Exit should be dropped", len(h.Windows()))
	}
}

func TestRenderSelectionAttributes(t *testing.T) {
	h, _ := world(t)
	a := h.NewWindow()
	a.Body.SetString("first window")
	b := h.NewWindowIn(1)
	b.Body.SetString("second window")
	a.SetSelection(SubBody, 0, 5)
	b.SetSelection(SubBody, 0, 6)
	h.SetCurrent(b, SubBody)
	h.Render()
	// b's selection is current: reverse video. a's: outline.
	pa, _ := a.frameFor(SubBody).PointOf(0)
	pb, _ := b.frameFor(SubBody).PointOf(0)
	s := h.Screen()
	if got := s.At(pb).Attr; got.String() != "R" {
		t.Errorf("current selection attr = %v", got)
	}
	if got := s.At(pa).Attr; got.String() != "O" {
		t.Errorf("other selection attr = %v", got)
	}
}

func TestRenderDirectoryFigureShape(t *testing.T) {
	// The Figure 1 shape: a directory window shows its name with a final
	// slash in the tag and the contents in the body.
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help", "")
	h.Render()
	screen := h.Screen().String()
	if !strings.Contains(screen, "/usr/rob/src/help/") {
		t.Errorf("tag line missing from screen:\n%s", screen)
	}
	if !strings.Contains(screen, "help.c") || !strings.Contains(screen, "dat.h") {
		t.Errorf("directory listing missing from screen:\n%s", screen)
	}
	_ = w
}

func TestTypingMarksModified(t *testing.T) {
	h, _ := world(t)
	w, _ := h.OpenFile("/usr/rob/src/help/dat.h", "")
	p := pointOf(t, h, w, "typedef")
	h.HandleAll(event.Click(event.Left, p))
	h.HandleAll(event.Type("z"))
	if !strings.Contains(w.Tag.String(), "Put!") {
		t.Errorf("tag after typing = %q", w.Tag.String())
	}
}

func TestExecSweepUnderline(t *testing.T) {
	h, _ := world(t)
	w := h.NewWindow()
	w.Body.SetString("run Cut now")
	h.Render()
	p0, ok := h.FindBody(w, "Cut")
	if !ok {
		t.Fatal("Cut not visible")
	}
	// Press middle and drag over the word without releasing.
	h.Handle(event.MouseEvent(event.Mouse{Pt: p0, Buttons: event.Middle}))
	h.Handle(event.MouseEvent(event.Mouse{Pt: p0.Add(geom.Pt(3, 0)), Buttons: event.Middle}))
	h.Render()
	attrs := h.Screen().AttrString()
	if !strings.Contains(attrs, "UUU") {
		t.Errorf("mid-sweep text not underlined:\n%s", attrs)
	}
	// Release: the underline goes away and the text executed.
	h.Handle(event.MouseEvent(event.Mouse{Pt: p0.Add(geom.Pt(3, 0)), Buttons: 0}))
	h.Render()
	if strings.Contains(h.Screen().AttrString(), "U") {
		t.Error("underline survived release")
	}
}
