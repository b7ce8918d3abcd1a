package core

import (
	"strings"
	"testing"
)

func dirtyWindow(t *testing.T, h *Help) *Window {
	t.Helper()
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	w.Body.Insert(0, "edit ")
	w.Body.Commit()
	if !w.Body.Modified() {
		t.Fatal("edit did not mark the body modified")
	}
	return w
}

func TestExitRefusedWhileDirty(t *testing.T) {
	h, _ := world(t)
	w := dirtyWindow(t, h)

	h.Execute(w, "Exit")
	if h.Exited() {
		t.Fatal("Exit discarded unsaved changes on the first try")
	}
	errs := h.Errors().Body.String()
	if !strings.Contains(errs, "unsaved changes") || !strings.Contains(errs, w.FileName()) {
		t.Fatalf("Errors window does not list the dirty window: %q", errs)
	}

	// An immediate repeat means "yes, discard".
	h.Execute(w, "Exit")
	if !h.Exited() {
		t.Fatal("second Exit did not proceed")
	}
}

func TestExitPendingClearedByOtherCommand(t *testing.T) {
	h, _ := world(t)
	w := dirtyWindow(t, h)

	h.Execute(w, "Exit")
	if h.Exited() {
		t.Fatal("exited on first Exit")
	}
	// Any intervening command disarms the confirmation.
	h.Execute(w, "Snarf")
	h.Execute(w, "Exit")
	if h.Exited() {
		t.Fatal("Exit after an intervening command skipped the confirmation")
	}
	h.Execute(w, "Exit")
	if !h.Exited() {
		t.Fatal("confirmed Exit did not proceed")
	}
}

func TestExitCleanProceedsImmediately(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w, "Exit")
	if !h.Exited() {
		t.Fatal("clean session should exit on the first Exit")
	}
}

// Saving the file disarms the guard the honest way.
func TestExitAfterPut(t *testing.T) {
	h, _ := world(t)
	w := dirtyWindow(t, h)
	h.Execute(w, "Put!")
	if w.Body.Modified() {
		t.Fatal("Put! left the body modified")
	}
	h.Execute(w, "Exit")
	if !h.Exited() {
		t.Fatal("Exit refused after Put!")
	}
}

// Scratch (unnamed) windows, directories, and the Errors window never
// block Exit: they have nowhere to be saved to.
func TestExitIgnoresUnsavableWindows(t *testing.T) {
	h, _ := world(t)
	scratch := h.NewWindow()
	scratch.Body.SetString("ephemeral text")
	dir, err := h.OpenFile("/usr/rob/src/help", "")
	if err != nil {
		t.Fatal(err)
	}
	dir.Body.Insert(0, "x")
	h.AppendErrors("some diagnostics\n")
	h.Errors().Body.Insert(0, "more")

	h.Execute(scratch, "Exit")
	if !h.Exited() {
		t.Fatal("unsavable windows blocked Exit")
	}
}

func TestAppendErrorsTrimsFront(t *testing.T) {
	h, _ := world(t)
	line := strings.Repeat("x", 127) + "\n"
	for i := 0; i < defaultErrorsCap/len(line)+64; i++ {
		h.AppendErrors(line)
	}
	w := h.Errors()
	if n := w.Body.Len(); n > defaultErrorsCap {
		t.Fatalf("Errors body %d runes, cap %d", n, defaultErrorsCap)
	}
	body := w.Body.String()
	// The trim lands on a line boundary, so the window still starts
	// with a whole line; the newest output is always kept.
	if !strings.HasPrefix(body, line) {
		t.Fatalf("Errors body starts mid-line: %q", body[:64])
	}
	if !strings.HasSuffix(body, line) {
		t.Fatal("trim discarded the newest output")
	}
	sel := w.Sel.Of(SubBody)
	if sel.Q0 < 0 || sel.Q1 > w.Body.Len() || sel.Q0 > sel.Q1 {
		t.Fatalf("selection %+v out of range after trim", sel)
	}
	if w.bodyOrg < 0 || w.bodyOrg > w.Body.Len() {
		t.Fatalf("bodyOrg %d out of range after trim", w.bodyOrg)
	}
}

// One oversized append must still be trimmed, even though it has no
// interior line boundary near the cap.
func TestAppendErrorsOversizedBlob(t *testing.T) {
	h, _ := world(t)
	h.AppendErrors(strings.Repeat("y", defaultErrorsCap*2))
	w := h.Errors()
	if n := w.Body.Len(); n > defaultErrorsCap {
		t.Fatalf("Errors body %d runes after blob, cap %d", n, defaultErrorsCap)
	}
}
