package core_test

// The capture golden: one scripted session — the paper's Figures 4–12
// replay, typing, Cut/Paste, Undo, scrolling, Get!, Clone!, OpenFile
// (plain, directory and paged), a column filled past the placement
// heuristic's third stage, and every /mnt/help ctl message — recorded as
// the decoded journal op stream and the notify event stream, step by
// step. The file under testdata pins both streams record for record, so
// a change to how state changes are captured can alter what they cost
// but not what they say. After every step the drain audit also checks
// that no window's live state differs from what the drain last saw: a
// mutation that forgot to mark its window fails here, at the step that
// made it. TestCaptureRenderEquivalence replays the same script against
// the render audit instead.

import (
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/journal"
	"repro/internal/notify"
	"repro/internal/session"
	"repro/internal/vfs"
	"repro/internal/world"
)

var update = flag.Bool("update", false, "rewrite testdata/capture.golden")

const captureGolden = "testdata/capture.golden"

// audit checks, under the actor lock and straight after a drain, that
// the drain left nothing behind.
var audit = core.AuditShadows

// capture records the two change streams of one session, cut into steps.
type capture struct {
	t    *testing.T
	h    *core.Help
	mfs  *journal.MemFS
	seen int // journal ops already written out

	mu     sync.Mutex
	events []notify.Event

	out   strings.Builder
	steps int
}

func newCapture(t *testing.T, s *session.Session) *capture {
	c := &capture{t: t, h: s.H, mfs: journal.NewMemFS()}
	jw, err := journal.Open(c.mfs, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jw.Close() })
	s.H.AttachJournal(jw, 1<<20)
	s.H.Notify.SetTap(func(ev notify.Event) {
		switch ev.Kind {
		case "new", "del", "body", "tag", "exec":
			c.mu.Lock()
			c.events = append(c.events, ev)
			c.mu.Unlock()
		}
	})
	return c
}

// step ends one step: wait for commands to finish, drain under the actor
// lock, audit, and write out what the step journaled and published.
func (c *capture) step(name string) {
	c.t.Helper()
	c.h.WaitIdle()
	done := make(chan error)
	c.h.Apply(func() {
		c.h.JournalSweep()
		done <- audit(c.h)
	})
	if err := <-done; err != nil {
		c.t.Fatalf("step %d (%s): %v", c.steps, name, err)
	}
	if err := c.h.Journal().Flush(); err != nil {
		c.t.Fatal(err)
	}
	st, err := journal.Load(c.mfs)
	if err != nil {
		c.t.Fatal(err)
	}
	fmt.Fprintf(&c.out, "== %d %s\n", c.steps, name)
	c.steps++
	for _, op := range st.Ops[c.seen:] {
		fmt.Fprintf(&c.out, "J %d w%d s%d %d %d %d %v %s %s\n",
			op.Kind, op.Win, op.Sub, op.P0, op.P1, op.P2, op.Flag, short(op.Str1), short(op.Str2))
	}
	c.seen = len(st.Ops)
	c.mu.Lock()
	evs := c.events
	c.events = nil
	c.mu.Unlock()
	for _, line := range eventLines(evs) {
		c.out.WriteString(line)
	}
}

// eventLines renders events without their seq numbers. Within a run of
// body/tag events — one interaction's coalesced text changes — the order
// across windows carries no meaning, so each run is sorted.
func eventLines(evs []notify.Event) []string {
	var out, run []string
	flush := func() {
		sort.Strings(run)
		out = append(out, run...)
		run = run[:0]
	}
	for _, ev := range evs {
		line := fmt.Sprintf("N %06d %s %s\n", ev.Window, ev.Kind, ev.Detail)
		if ev.Kind == "body" || ev.Kind == "tag" {
			run = append(run, line)
			continue
		}
		flush()
		out = append(out, line)
	}
	flush()
	return out
}

// short keeps the golden readable: long payloads (file contents,
// listings) are pinned by length and checksum.
func short(s string) string {
	if len(s) <= 48 {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("len=%d crc=%08x", len(s), crc32.ChecksumIEEE([]byte(s)))
}

func TestCaptureGolden(t *testing.T) {
	s, err := session.New(120, 60)
	if err != nil {
		t.Fatal(err)
	}
	c := newCapture(t, s)
	c.step("attach")
	captureScript(t, s, c.step)

	got := c.out.String()
	if *update {
		if err := os.WriteFile(captureGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(captureGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("capture differs from %s at line %d:\n got  %s\n want %s", captureGolden, i+1, g, w)
			}
		}
	}
}

// TestCaptureRenderEquivalence replays the capture script with the
// render audit after every step: an incremental render must paint what
// a full repaint paints, so a mutation that forgot to damage its column
// fails at the step that made it. It cannot ride along in
// TestCaptureGolden: a render clamps stale scroll origins, which the
// journal records, so the extra renders would change the golden.
func TestCaptureRenderEquivalence(t *testing.T) {
	s, err := session.New(120, 60)
	if err != nil {
		t.Fatal(err)
	}
	h, steps := s.H, 0
	step := func(name string) {
		t.Helper()
		h.WaitIdle()
		done := make(chan error)
		h.Apply(func() { done <- core.AuditRender(h) })
		if err := <-done; err != nil {
			t.Fatalf("step %d (%s): %v", steps, name, err)
		}
		steps++
	}
	step("attach")
	captureScript(t, s, step)
}

// captureScript drives the scripted session, calling step after each
// gesture, command, file operation and ctl message.
func captureScript(t *testing.T, s *session.Session, step func(name string)) {
	h, fs := s.H, s.W.FS
	gestures := 0
	s.AfterGesture = func() {
		gestures++
		step(fmt.Sprintf("figure gesture %d", gestures))
	}
	if err := s.RunDebugSession(); err != nil {
		t.Fatal(err)
	}
	s.AfterGesture = nil
	step("figures done")

	mustWrite := func(path, data string) {
		t.Helper()
		if err := fs.WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	handle := func(name string, evs []event.Event) {
		t.Helper()
		h.HandleAll(evs)
		step(name)
	}
	at := func(w *core.Window, substr string) geom.Point {
		t.Helper()
		h.Render()
		p, ok := h.FindBody(w, substr)
		if !ok {
			t.Fatalf("%q not visible in window %d", substr, w.ID)
		}
		return p
	}

	// Typing, Cut/Paste, Undo and scrolling in a window of its own.
	mustWrite("/tmp/input", "alpha beta gamma\n"+strings.Repeat("filler line\n", 120))
	in, err := h.OpenFile("/tmp/input", "")
	if err != nil {
		t.Fatal(err)
	}
	h.Reveal(in)
	step("open input")
	handle("click", event.Click(event.Left, at(in, "beta")))
	handle("type", event.Type("typed "))
	handle("backspace", event.Type("\b\b"))
	p := at(in, "gamma")
	handle("sweep", event.Sweep(event.Left, p, p.Add(geom.Pt(5, 0))))
	handle("type over selection", event.Type("GAMMA"))
	p = at(in, "alpha")
	handle("cut chord", event.SweepChord(event.Left, p, p.Add(geom.Pt(6, 0)), event.Middle))
	handle("paste chord", event.ChordClick(event.Left, at(in, "GAMMA"), event.Right))
	h.Execute(in, "Undo")
	step("Undo")
	h.Execute(in, "Undo")
	step("Undo again")
	h.Execute(in, "Redo")
	step("Redo")
	tag, ok := h.FindTag(in, "")
	if !ok {
		t.Fatal("input tag not visible")
	}
	bar := geom.Pt(h.ColumnRect(h.ColumnIndexOf(in)).Min.X+1, tag.Y+4)
	handle("scroll forward", event.Click(event.Right, bar))
	handle("scroll back", event.Click(event.Left, bar))
	handle("scroll jump", event.Click(event.Middle, bar.Add(geom.Pt(0, 3))))

	// Buffer swaps: Put!, Get! after an outside change, Clone!, a
	// directory open, and a paged open with its own Clone! and Get!.
	h.Execute(in, "Put!")
	step("Put!")
	mustWrite("/tmp/input", "replaced from outside\n")
	h.Execute(in, "Get!")
	step("Get!")
	h.Execute(in, "Clone!")
	step("Clone!")
	dirWin, err := h.OpenFile("/tmp", "")
	if err != nil {
		t.Fatal(err)
	}
	step("open directory")
	h.SetLimits(core.Limits{MaxResident: 4096})
	mustWrite("/tmp/big", strings.Repeat("a paged line of text\n", 1000))
	big, err := h.OpenFile("/tmp/big", "300")
	if err != nil {
		t.Fatal(err)
	}
	step("open paged")
	h.Execute(big, "Clone!")
	step("Clone! paged")
	mustWrite("/tmp/big", strings.Repeat("a rewritten paged line\n", 900))
	h.Execute(big, "Get!")
	step("Get! paged")
	h.SetLimits(core.Limits{MaxResident: core.DefaultMaxResident})

	// Placement stage three: keep opening windows in the left column
	// until the heuristic has to hide the windows it covers.
	left := h.NewWindowIn(0)
	h.SetCurrent(left, core.SubBody)
	step("new window in left column")
	for i := 0; i < 14; i++ {
		name := fmt.Sprintf("/tmp/place%d", i)
		mustWrite(name, strings.Repeat(fmt.Sprintf("file %d\n", i), 12))
		if _, err := h.OpenFile(name, ""); err != nil {
			t.Fatal(err)
		}
		step("place " + name)
	}

	// The file interface: create a window, then every ctl message, a
	// body replacement and a bodyapp append.
	f, err := fs.Open(world.MountRoot+"/new/ctl", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	f.Close()
	dir := world.MountRoot + "/" + strings.TrimSpace(string(buf[:n]))
	step("new/ctl")
	for _, m := range []struct{ file, data string }{
		{"body", "one\ntwo\nthree\nfour\nfive\n"},
		{"bodyapp", "six\n"},
		{"ctl", "name /tmp/ctlwin"},
		{"ctl", "tag /tmp/ctlwin Close! Special"},
		{"ctl", "dirty"},
		{"ctl", "clean"},
		{"ctl", "show 3"},
		{"ctl", "select 4 8"},
		{"tag", "/tmp/ctlwin2\tClose!"},
		{"ctl", "delete"},
	} {
		mustWrite(dir+"/"+m.file, m.data)
		step(m.file + " " + m.data)
	}
	// A directory window's tag never shows Put!, so here the clean and
	// dirty messages change nothing but the modified flag.
	for _, msg := range []string{"dirty", "clean"} {
		mustWrite(fmt.Sprintf("%s/%d/ctl", world.MountRoot, dirWin.ID), msg)
		step("directory ctl " + msg)
	}
	if err := fs.WriteFile(world.MountRoot+"/ctl", []byte("open /tmp/place3:2\n")); err != nil {
		t.Fatal(err)
	}
	step("root ctl open")
}
