package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/session"
	"repro/internal/vfs"
)

// The output checks. Any failure makes the run incorrect, and an
// incorrect run reports no numbers.

// checkBody compares a body read with what the client wrote.
func checkBody(w *winModel, got string) error {
	if got != w.body {
		return fmt.Errorf("window %d body: read %d bytes, model has %d (first difference at %d)",
			w.id, len(got), len(w.body), firstDiff(got, w.body))
	}
	return nil
}

// checkEdit compares text after an edit gesture with what the edit
// should have left.
func checkEdit(what, got, want string) error {
	if got != want {
		i := firstDiff(got, want)
		return fmt.Errorf("desk: after %s the text has %d bytes, want %d; first difference at %d: got %q, want %q",
			what, len(got), len(want), i, clip(got[i:]), clip(want[i:]))
	}
	return nil
}

// checkTag checks that a named window's tag starts with its name.
func checkTag(w *winModel, got string) error {
	if w.name != "" && !strings.HasPrefix(got, w.name+"\t") {
		return fmt.Errorf("window %d tag %q does not start with its name %q", w.id, got, w.name)
	}
	return nil
}

// windowFiles are the files every window directory serves.
var windowFiles = []string{"body", "bodyapp", "ctl", "event", "tag"}

func checkWinDir(w *winModel, ents []vfs.Info) error {
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(windowFiles, " ") {
		return fmt.Errorf("window %d directory lists %v, want %v", w.id, names, windowFiles)
	}
	return nil
}

// checkReadWait checks that event sequence numbers never go backwards,
// and that a client that mutated since its last wait sees an event.
func checkReadWait(since, next uint64, n int, pending bool) error {
	if next < since {
		return fmt.Errorf("readwait went backwards: resumed from %d, got %d", since, next)
	}
	if pending && (n == 0 || next == since) {
		return fmt.Errorf("readwait from %d returned no event after a mutation", since)
	}
	return nil
}

// checkRecovery flushes the live session's journal, recovers it into a
// fresh help instance, and compares the two states window by window.
func checkRecovery(live *core.Help, dir string, fresh func() (*core.Help, error)) error {
	live.WaitIdle()
	jw := live.Journal()
	if jw == nil {
		return errors.New("no journal attached")
	}
	if err := jw.Flush(); err != nil {
		return fmt.Errorf("journal flush: %w", err)
	}
	fsys, err := journal.DirFS(dir)
	if err != nil {
		return err
	}
	h, err := fresh()
	if err != nil {
		return err
	}
	if _, err := core.RecoverSession(h, fsys); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return compareStates(fingerprint(live), fingerprint(h))
}

// fingerprint is the journaled state through the exported surface:
// focus, snarf, and every window's flags, selections, tag and body.
func fingerprint(h *core.Help) []string {
	cw, cs := h.Current()
	cid := 0
	if cw != nil {
		cid = cw.ID
	}
	out := []string{fmt.Sprintf("cur=%d.%d snarf=%q", cid, cs, h.Snarf())}
	for _, w := range h.Windows() {
		out = append(out, fmt.Sprintf("win %d hidden=%v dir=%v mod=%v sel=%v tag=%q body=%q",
			w.ID, w.Hidden(), w.IsDir, w.Body.Modified(), w.Sel, w.Tag.String(), w.Body.String()))
	}
	return out
}

func compareStates(live, recovered []string) error {
	for i := 0; i < len(live) || i < len(recovered); i++ {
		var a, b string
		if i < len(live) {
			a = live[i]
		}
		if i < len(recovered) {
			b = recovered[i]
		}
		if a != b {
			return fmt.Errorf("recovered state differs from live at line %d:\n live      %s\n recovered %s",
				i, clip(a), clip(b))
		}
	}
	return nil
}

// figureText formats a step the way cmd/helpfigs writes figures/figN.txt.
func figureText(n int, st session.Step) string {
	s := fmt.Sprintf("Figure %d: %s\n\n%s", n, st.Desc, st.Screen)
	if strings.Contains(st.Attrs, "U") {
		s += "\nattribute plane (R reverse video, O outline, U underline):\n" + st.Attrs
	}
	return s
}

// checkFigure compares a replayed figure with its stored screenshot.
func checkFigure(n int, st session.Step, want string) error {
	got := figureText(n, st)
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				return fmt.Errorf("figure %d differs at line %d:\n got  %q\n want %q", n, i+1, clip(a), clip(b))
			}
		}
	}
	return nil
}

// checkLines checks that a tool's output holds every expected line.
func checkLines(tool, out string, want []string) error {
	have := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		have[l] = true
	}
	for _, l := range want {
		if !have[l] {
			return fmt.Errorf("%s output lacks %q (got %d bytes: %q)", tool, l, len(out), clip(out))
		}
	}
	return nil
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}
