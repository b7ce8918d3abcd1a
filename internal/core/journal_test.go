package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/journal"
	"repro/internal/shell"
	"repro/internal/userland"
	"repro/internal/vfs"
)

// fingerprint summarizes every piece of journaled session state, plus
// the rendered screen, so two sessions can be compared byte for byte.
func fingerprint(h *Help) string {
	var b strings.Builder
	h.Render()
	cw := 0
	if h.curWin != nil {
		cw = h.curWin.ID
	}
	fmt.Fprintf(&b, "cur=%d.%d snarf=%q split=%d errors=%d\n", cw, h.curSub, h.snarf, h.cols[0].r.Max.X, h.errorsID())
	for _, w := range h.Windows() {
		fmt.Fprintf(&b, "win %d col=%d top=%d hidden=%v dir=%v org=%d mod=%v sel=%v tag=%q body=%q\n",
			w.ID, h.colIndex(w.col), w.top, w.hidden, w.IsDir, w.bodyOrg,
			w.Body.Modified(), w.Sel, w.Tag.String(), w.Body.String())
	}
	b.WriteString(h.Screen().String())
	return b.String()
}

// script drives a session through the journaled entry points: opens,
// edits, cut/paste, tool output, a file write, a scroll, a close.
func script(t *testing.T, h *Help) {
	t.Helper()
	w1, err := h.OpenFile("/usr/rob/src/help/help.c", "5")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w1, "Snarf")
	w2, err := h.OpenFile("/usr/rob/src/help/dat.h", "")
	if err != nil {
		t.Fatal(err)
	}
	w2.SetSelection(SubBody, 0, 0)
	h.SetCurrent(w2, SubBody)
	h.Execute(w2, "Paste")
	h.Execute(w2, "Pattern Text")
	h.Execute(w2, "Put!")
	h.Execute(w1, "echo recovered world")
	w3 := h.NewWindow()
	h.Execute(w3, "Text scratch contents")
	w1.Scroll(2)
	h.Execute(w1, "Snarf") // interaction so the scroll is swept
	h.Execute(w3, "Close!")
}

func attachMemJournal(t *testing.T, h *Help, every int) (*journal.MemFS, *journal.Writer) {
	t.Helper()
	fs := journal.NewMemFS()
	jw, err := journal.Open(fs, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h.AttachJournal(jw, every)
	return fs, jw
}

func TestJournalRecoverRoundTrip(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	script(t, h)
	want := fingerprint(h)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	h2, _ := world(t)
	res, err := RecoverSession(h2, jfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("recovery replayed zero ops")
	}
	if got := fingerprint(h2); got != want {
		t.Fatalf("recovered session differs:\n--- live ---\n%s\n--- recovered ---\n%s", want, got)
	}
	if h2.PanicCount() != 0 {
		t.Fatalf("recovery recovered %d panics", h2.PanicCount())
	}
	jw.Close()
}

// The recovered session must stay fully usable: more edits, more
// journal, another recovery.
func TestJournalRecoverThenContinue(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	script(t, h)
	jw.Flush()
	jw.Close()

	h2, _ := world(t)
	if _, err := RecoverSession(h2, jfs); err != nil {
		t.Fatal(err)
	}
	jw2, err := journal.Open(jfs, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h2.AttachJournal(jw2, 1<<20)
	w := h2.Windows()[0]
	h2.Execute(w, "Text after recovery")
	want := fingerprint(h2)
	jw2.Flush()
	jw2.Close()

	h3, _ := world(t)
	if _, err := RecoverSession(h3, jfs); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(h3); got != want {
		t.Fatalf("second recovery differs:\n--- live ---\n%s\n--- recovered ---\n%s", want, got)
	}
}

// TestJournalCrashMatrix cuts the journal at every record boundary and
// one byte to each side, then recovers. The contract at every cut:
// recovery either succeeds with a prefix-consistent world (invariants
// hold) or reports a clean error — it never panics, and a torn tail is
// never replayed as data.
func TestJournalCrashMatrix(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	script(t, h)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	jw.Close()

	segName := ""
	for _, name := range mustList(t, jfs) {
		if strings.HasPrefix(name, "wal-") {
			segName = name
		}
	}
	if segName == "" {
		t.Fatal("no segment written")
	}
	seg, err := jfs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	ends := journal.RecordEnds(seg)
	if len(ends) < 10 {
		t.Fatalf("only %d record boundaries; script too small for a matrix", len(ends))
	}

	cuts := map[int]bool{}
	for _, e := range ends {
		for _, d := range []int{-1, 0, 1} {
			if n := e + d; n >= 0 && n <= len(seg) {
				cuts[n] = true
			}
		}
	}
	for n := range cuts {
		cut := jfs.Clone()
		cut.WriteFile(segName, seg[:n])
		h2, _ := world(t)
		res, err := RecoverSession(h2, cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		if h2.PanicCount() != 0 {
			t.Fatalf("cut at %d: %d recovered panics", n, h2.PanicCount())
		}
		// Prefix consistency: the number of replayed ops equals the
		// number of whole records below the cut.
		want := 0
		for _, e := range ends {
			if e <= n && e > 16 {
				want++
			}
		}
		if res.Ops != want {
			t.Fatalf("cut at %d: replayed %d ops, want %d", n, res.Ops, want)
		}
		checkInvariants(t, h2)
	}
}

func mustList(t *testing.T, fs *journal.MemFS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// With an aggressive checkpoint cadence the journal compacts mid-script
// and recovery goes through checkpoint + short tail instead of the full
// op history. The result must be identical anyway.
func TestJournalCheckpointCadence(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 4)
	script(t, h)
	want := fingerprint(h)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	jw.Close()

	var segs int
	ckpt := false
	for _, name := range mustList(t, jfs) {
		if strings.HasPrefix(name, "wal-") {
			segs++
		}
		if name == "checkpoint" {
			ckpt = true
		}
	}
	if !ckpt {
		t.Fatal("no checkpoint written")
	}
	if segs > 1 {
		t.Fatalf("%d segments after compaction", segs)
	}

	h2, _ := world(t)
	res, err := RecoverSession(h2, jfs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CkptGen == 0 {
		t.Fatal("recovery used the initial checkpoint; cadence never fired")
	}
	if got := fingerprint(h2); got != want {
		t.Fatalf("recovered session differs:\n--- live ---\n%s\n--- recovered ---\n%s", want, got)
	}
}

// A corrupt mid-journal flip must surface as an error from recovery,
// not a half-replayed session.
func TestJournalRecoverCorrupt(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	script(t, h)
	jw.Flush()
	jw.Close()

	segName := ""
	for _, name := range mustList(t, jfs) {
		if strings.HasPrefix(name, "wal-") {
			segName = name
		}
	}
	seg, _ := jfs.ReadFile(segName)
	ends := journal.RecordEnds(seg)
	seg[ends[1]+8] ^= 0xff // inside the second record's payload
	jfs.WriteFile(segName, seg)

	h2, _ := world(t)
	if _, err := RecoverSession(h2, jfs); err == nil {
		t.Fatal("corrupt journal recovered cleanly")
	}
}

// RecoverSession must refuse to run on a session that is already
// journaling (replay would be re-recorded).
func TestRecoverAfterAttachRefused(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	defer jw.Close()
	if _, err := RecoverSession(h, jfs); err == nil {
		t.Fatal("RecoverSession allowed after AttachJournal")
	}
}

func TestRecoverScreenMismatch(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	jw.Flush()
	jw.Close()

	fs2 := vfs.New()
	sh2 := shell.New(fs2)
	userland.Install(sh2)
	h2 := New(fs2, sh2, 100, 30)
	if _, err := RecoverSession(h2, jfs); err == nil {
		t.Fatal("recovered onto a differently sized screen")
	}
}

// A panic inside a command becomes a recovered fault: counted, reported
// in Errors, crash report written next to the journal — and the session
// keeps working.
func TestExecutePanicRecovered(t *testing.T) {
	h, _ := world(t)
	jfs, jw := attachMemJournal(t, h, 1<<20)
	defer jw.Close()

	h.Shell.Register("boom", func(ctx *shell.Context, args []string) int { panic("kaboom") })
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(w, "boom")

	if h.PanicCount() != 1 {
		t.Fatalf("PanicCount = %d, want 1", h.PanicCount())
	}
	errs := h.Errors().Body.String()
	if !strings.Contains(errs, "recovered panic") || !strings.Contains(errs, "kaboom") {
		t.Fatalf("Errors window: %q", errs)
	}
	if !strings.Contains(errs, "crash-001.txt") {
		t.Fatalf("Errors window does not name the crash report: %q", errs)
	}
	report, err := jfs.ReadFile("crash-001.txt")
	if err != nil {
		t.Fatalf("crash report: %v", err)
	}
	if !strings.Contains(string(report), "kaboom") || !strings.Contains(string(report), "goroutine") {
		t.Fatalf("crash report lacks panic value or stack:\n%s", report)
	}

	// Still alive, still journaling: the whole episode recovers.
	h.Execute(w, "Snarf")
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	h2, _ := world(t)
	if _, err := RecoverSession(h2, jfs); err != nil {
		t.Fatal(err)
	}
	if got := h2.Errors().Body.String(); !strings.Contains(got, "recovered panic") {
		t.Fatalf("recovered session lost the fault report: %q", got)
	}
}

// The same guard covers the raw event loop: a panic fired from deep
// inside a keystroke (here, a poisoned splice hook) must not escape
// Handle.
func TestHandlePanicRecovered(t *testing.T) {
	h, _ := world(t)
	w, err := h.OpenFile("/usr/rob/src/help/help.c", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Render()
	var pt geom.Point
	found := false
	for y := 0; y < 24 && !found; y++ {
		for x := 0; x < 80 && !found; x++ {
			ht := h.hitTest(geom.Pt(x, y))
			if ht.kind == hitWindow && ht.win == w && ht.sub == SubBody {
				pt, found = geom.Pt(x, y), true
			}
		}
	}
	if !found {
		t.Fatal("window body not on screen")
	}
	w.Body.SetOnSplice(func(off, ndel int, ins string) { panic("poisoned hook") })

	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic escaped Handle: %v", r)
			}
		}()
		h.Handle(event.MouseEvent(event.Mouse{Pt: pt}))
		h.Handle(event.KbdEvent('x'))
	}()
	if h.PanicCount() != 1 {
		t.Fatalf("PanicCount = %d, want 1", h.PanicCount())
	}
	if !strings.Contains(h.Errors().Body.String(), "recovered panic") {
		t.Fatalf("Errors window: %q", h.Errors().Body.String())
	}
}
