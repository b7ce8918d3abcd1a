package core

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/geom"
)

// Edge cases of execution semantics and gestures not covered elsewhere.

func TestWriteWithExplicitName(t *testing.T) {
	h, fs := world2(t)
	w := h.NewWindow()
	w.Body.SetString("exported content\n")
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Write /tmp/exported")
	data, err := fs.ReadFile("/tmp/exported")
	if err != nil || string(data) != "exported content\n" {
		t.Errorf("file=%q err=%v (errors %q)", data, err, h.Errors().Body.String())
	}
	// The window adopts the name.
	if w.FileName() != "/tmp/exported" {
		t.Errorf("name = %q", w.FileName())
	}
}

func TestWriteRelativeName(t *testing.T) {
	h, fs := world2(t)
	w, _ := h.OpenFile("/usr/rob/src/help/help.c", "")
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Write copy.c")
	if !fs.Exists("/usr/rob/src/help/copy.c") {
		t.Errorf("relative Write failed; errors %q", h.Errors().Body.String())
	}
}

func TestWriteNoName(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	h.SetCurrent(w, SubBody)
	h.Execute(w, "Write")
	if !strings.Contains(h.Errors().Body.String(), "Write:") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestOpenMultipleArguments(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	h.Execute(w, "Open /usr/rob/src/help/dat.h /usr/rob/src/help/help.c")
	if h.WindowByName("/usr/rob/src/help/dat.h") == nil ||
		h.WindowByName("/usr/rob/src/help/help.c") == nil {
		t.Error("both files should open")
	}
}

func TestOpenPatternAddress(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	h.Execute(w, "Open /usr/rob/src/help/help.c:/main/")
	opened := h.WindowByName("/usr/rob/src/help/help.c")
	if opened == nil {
		t.Fatalf("errors: %q", h.Errors().Body.String())
	}
	if got := opened.SelectedText(SubBody); got != "main" {
		t.Errorf("selected %q", got)
	}
}

func TestOpenCharAddress(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	h.Execute(w, "Open /usr/rob/src/help/dat.h:#10")
	opened := h.WindowByName("/usr/rob/src/help/dat.h")
	if opened == nil {
		t.Fatal("window missing")
	}
	if opened.Sel.Of(SubBody).Q0 != 10 {
		t.Errorf("selection at %d", opened.Sel.Of(SubBody).Q0)
	}
}

func TestSnarfEmptySelectionKeepsBuffer(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	w.Body.SetString("keepable")
	w.SetSelection(SubBody, 0, 4)
	h.SetCurrent(w, SubBody)
	h.SnarfSel()
	if h.Snarf() != "keep" {
		t.Fatalf("snarf = %q", h.Snarf())
	}
	// Empty selection: the buffer is untouched.
	w.SetSelection(SubBody, 2, 2)
	h.SnarfSel()
	if h.Snarf() != "keep" {
		t.Errorf("snarf clobbered: %q", h.Snarf())
	}
}

func TestCutWithoutCurrentWindow(t *testing.T) {
	h, _ := world2(t)
	// No current selection anywhere: Cut/Paste/Snarf are no-ops.
	h.Cut()
	h.Paste()
	h.SnarfSel()
	if len(h.Windows()) != 0 {
		t.Error("no-op editing created windows")
	}
}

func TestPatternNoCurrentWindow(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	h.SetCurrent(nil, SubBody)
	h.Execute(w, "Pattern xyz")
	if !strings.Contains(h.Errors().Body.String(), "Pattern:") {
		t.Errorf("errors = %q", h.Errors().Body.String())
	}
}

func TestPatternUsesSnarfAsDefault(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	w.Body.SetString("find the needle here")
	w.SetSelection(SubBody, 0, 6)
	h.SetCurrent(w, SubBody)
	h.SnarfSel() // snarf = "find t"
	w.SetSelection(SubBody, 8, 8)
	h.Execute(w, "Pattern")
	if got := w.SelectedText(SubBody); got != "find t" {
		t.Errorf("selected %q", got)
	}
}

func TestGestureOutsideWindows(t *testing.T) {
	h, _ := world2(t)
	h.Render()
	// Clicks in the void and keys with no window under the mouse are
	// harmless.
	h.HandleAll(event.Click(event.Left, geom.Pt(30, 20)))
	h.HandleAll(event.Type("x"))
	if h.Metrics().Keystrokes != 1 {
		t.Errorf("keystrokes = %d", h.Metrics().Keystrokes)
	}
	if len(h.Windows()) != 0 {
		t.Error("void interaction created windows")
	}
}

func TestRightClickInBodyIsNoop(t *testing.T) {
	h, _ := world2(t)
	w, _ := h.OpenFile("/usr/rob/src/help/dat.h", "")
	top := w.Top()
	h.Render()
	p, _ := h.FindBody(w, "typedef")
	h.HandleAll(event.Click(event.Right, p))
	if w.Top() != top {
		t.Error("right click in body moved the window")
	}
}

func TestTypingScrollsToFollowCursor(t *testing.T) {
	h, _ := world2(t)
	fsWrite(t, h, "/long", strings.Repeat("line\n", 100))
	w, _ := h.OpenFile("/long", "")
	h.Render()
	// Put the insertion point at the very end (off screen) and type: the
	// window must scroll to keep it visible.
	w.SetSelection(SubBody, w.Body.Len(), w.Body.Len())
	h.SetCurrent(w, SubBody)
	p, _ := h.FindBody(w, "line") // mouse over the window
	h.HandleAll(event.Click(event.Left, p))
	w.SetSelection(SubBody, w.Body.Len(), w.Body.Len())
	h.HandleAll(event.Type("z"))
	h.Render()
	f := w.frameFor(SubBody)
	if f == nil || !f.Visible(w.Sel.Of(SubBody).Q0) {
		t.Error("cursor scrolled out of view while typing")
	}
}

func TestExecuteEmptyAndBlank(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	before := h.Metrics().Commands
	h.Execute(w, "")
	h.Execute(w, "   \t  ")
	if h.Metrics().Commands != before {
		t.Error("blank commands should not count")
	}
}

func TestMiddleClickInEmptySpaceExecutesNothing(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	w.Body.SetString("word")
	h.Render()
	f := w.frameFor(SubBody)
	r := f.Rect()
	// Click far below the text inside the body.
	p := geom.Pt(r.Min.X+2, r.Max.Y-1)
	before := len(h.Windows())
	h.HandleAll(event.Click(event.Middle, p))
	// Expansion at end-of-text may pick up "word" — acceptable — but no
	// crash and at most an Errors window appears.
	if len(h.Windows()) > before+1 {
		t.Error("unexpected windows created")
	}
}

func TestWindowsOrderStable(t *testing.T) {
	h, _ := world2(t)
	a := h.NewWindow()
	b := h.NewWindow()
	c := h.NewWindow()
	ws := h.Windows()
	if ws[0] != a || ws[1] != b || ws[2] != c {
		t.Error("Windows not ordered by id")
	}
	h.CloseWindow(b)
	ws = h.Windows()
	if len(ws) != 2 || ws[0] != a || ws[1] != c {
		t.Error("order broken after close")
	}
}

func TestPointOfSelection(t *testing.T) {
	h, _ := world2(t)
	w := h.NewWindow()
	w.Body.SetString("anchor text")
	w.SetSelection(SubBody, 7, 7)
	h.SetCurrent(w, SubBody)
	h.Render()
	p, ok := h.PointOfSelection()
	if !ok {
		t.Fatal("selection point not found")
	}
	if off := w.frameFor(SubBody).OffsetOf(p); off != 7 {
		t.Errorf("selection point maps to offset %d", off)
	}
	// Without a current window there is no point.
	h.SetCurrent(nil, SubBody)
	if _, ok := h.PointOfSelection(); ok {
		t.Error("nil current should have no selection point")
	}
}

func TestNavigateDirectoriesByPointing(t *testing.T) {
	// Opening a directory lists it; pointing at a subdirectory entry and
	// executing Open descends — the pleasant consequence of the
	// directory-window rules the paper calls "an elegant use".
	h, fs := world2(t)
	fs.MkdirAll("/usr/rob/src/help/sub")
	fs.WriteFile("/usr/rob/src/help/sub/inner.c", []byte("int inner;\n"))
	dirWin, err := h.OpenFile("/usr/rob/src", "")
	if err != nil {
		t.Fatal(err)
	}
	// Point at "help/" in the listing and Open.
	body := dirWin.Body.String()
	off := strings.Index(body, "help/")
	dirWin.SetSelection(SubBody, off+1, off+1)
	h.SetCurrent(dirWin, SubBody)
	h.Execute(dirWin, "Open")
	helpDir := h.WindowByName("/usr/rob/src/help/")
	if helpDir == nil {
		t.Fatalf("subdirectory not opened; errors: %q", h.Errors().Body.String())
	}
	// And again one level deeper.
	body = helpDir.Body.String()
	off = strings.Index(body, "sub/")
	helpDir.SetSelection(SubBody, off+1, off+1)
	h.SetCurrent(helpDir, SubBody)
	h.Execute(helpDir, "Open")
	if h.WindowByName("/usr/rob/src/help/sub/") == nil {
		t.Errorf("nested subdirectory not opened; errors: %q", h.Errors().Body.String())
	}
	// Finally a file from the deepest listing.
	subWin := h.WindowByName("/usr/rob/src/help/sub/")
	body = subWin.Body.String()
	off = strings.Index(body, "inner.c")
	subWin.SetSelection(SubBody, off+1, off+1)
	h.SetCurrent(subWin, SubBody)
	h.Execute(subWin, "Open")
	if h.WindowByName("/usr/rob/src/help/sub/inner.c") == nil {
		t.Errorf("file in subdirectory not opened; errors: %q", h.Errors().Body.String())
	}
}

func TestOpenRevealsExistingWindow(t *testing.T) {
	// "If the file is already open, the command just guarantees that its
	// window is visible."
	h, fs := world2(t)
	fs.WriteFile("/a", []byte(strings.Repeat("a\n", 30)))
	fs.WriteFile("/b", []byte(strings.Repeat("b\n", 30)))
	a, _ := h.OpenFile("/a", "")
	h.SetCurrent(a, SubBody)
	b, _ := h.OpenFile("/b", "")
	h.Reveal(b) // covers a entirely
	h.MoveWindow(b, geom.Pt(3, a.Top()))
	if h.VisibleSpan(a) > 0 {
		// Force the covered state if the move did not.
		h.Reveal(b)
	}
	again, err := h.OpenFile("/a", "")
	if err != nil || again != a {
		t.Fatalf("reopen = %v, %v", again, err)
	}
	if h.VisibleSpan(a) < 1 {
		t.Error("reopening did not make the window visible")
	}
}
