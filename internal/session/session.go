// Package session replays the paper's worked example — Figures 1 through
// 12 — against a live help instance, using nothing but synthesized mouse
// gestures. It is the harness behind the headline claim: "Through this
// entire demo I haven't yet touched the keyboard."
//
// Every primitive goes through the real event pipeline (event.Machine →
// core gesture dispatch), so the recorded metrics — button presses, mouse
// travel, keystrokes — measure the interface the user would actually
// operate, not a shortcut API.
package session

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/world"
)

// Step is one recorded stage of a session.
type Step struct {
	Name    string
	Desc    string
	Screen  string       // rendered screenshot after the step
	Attrs   string       // the attribute plane (selection/underline codes)
	Metrics core.Metrics // cumulative interaction metrics
	// Delta is the interaction cost of this step alone (Metrics minus
	// the previous step's), so golden tests pin per-step accounting —
	// a regression that double counts a press shows up in the exact
	// step that regressed.
	Delta core.Metrics
}

// Session drives a help world by mouse.
type Session struct {
	W     *world.World
	H     *core.Help
	Steps []Step

	// AfterGesture, when set, runs after every gesture the session
	// hands to help, so a test can check state at each step of a
	// replay rather than only at its snapshots.
	AfterGesture func()
}

// handle delivers one gesture's events, then runs AfterGesture.
func (s *Session) handle(evs []event.Event) {
	s.H.HandleAll(evs)
	if s.AfterGesture != nil {
		s.AfterGesture()
	}
}

// New builds a booted world on a w x h screen and records the boot step
// (Figure 4).
func New(w, h int) (*Session, error) {
	wld, err := world.Build(w, h)
	if err != nil {
		return nil, err
	}
	if err := wld.Boot(); err != nil {
		return nil, err
	}
	s := &Session{W: wld, H: wld.Help}
	s.Snapshot("fig4", "the screen after booting: tools loaded into the right column")
	return s, nil
}

// Snapshot records the current screen, the cumulative metrics, and the
// per-step delta against the previous snapshot. It waits for in-flight
// commands first, so snapshots are deterministic even though gesture
// execution is asynchronous.
func (s *Session) Snapshot(name, desc string) {
	s.H.WaitIdle()
	s.H.Render()
	m := s.H.Metrics()
	var prev core.Metrics
	if len(s.Steps) > 0 {
		prev = s.Steps[len(s.Steps)-1].Metrics
	}
	s.Steps = append(s.Steps, Step{
		Name:    name,
		Desc:    desc,
		Screen:  s.H.Screen().String(),
		Attrs:   s.H.Screen().AttrString(),
		Metrics: m,
		Delta: core.Metrics{
			Presses:    m.Presses - prev.Presses,
			Travel:     m.Travel - prev.Travel,
			Keystrokes: m.Keystrokes - prev.Keystrokes,
			Commands:   m.Commands - prev.Commands,
		},
	})
}

// Last returns the most recent step.
func (s *Session) Last() Step {
	return s.Steps[len(s.Steps)-1]
}

// findBody locates substr in win's body on screen, revealing the window
// with a genuine tab click when it is covered or truncated.
func (s *Session) findBody(win *core.Window, substr string) (geom.Point, error) {
	s.H.Render()
	if p, ok := s.H.FindBody(win, substr); ok {
		return p, nil
	}
	// Covered or scrolled out: click the window's tab to reveal it fully.
	tab, ok := s.H.TabPoint(win)
	if !ok {
		return geom.Point{}, fmt.Errorf("session: window %d has no tab", win.ID)
	}
	s.handle(event.Click(event.Left, tab))
	s.H.Render()
	if p, ok := s.H.FindBody(win, substr); ok {
		return p, nil
	}
	// Still cramped: the window sits near the column bottom, so do what a
	// user would — drag its tag to the middle of the column with the
	// right button, then click its tab so it owns the screen down to the
	// column bottom.
	if tagPt, ok := s.H.FindTag(win, ""); ok {
		colR := s.H.ColumnRect(s.H.ColumnIndexOf(win))
		target := geom.Pt(tagPt.X, colR.Min.Y+colR.Dy()/3)
		s.handle(event.Drag(event.Right, tagPt, target))
		s.H.Render()
		if tab2, ok := s.H.TabPoint(win); ok {
			s.handle(event.Click(event.Left, tab2))
			s.H.Render()
		}
		if p, ok := s.H.FindBody(win, substr); ok {
			return p, nil
		}
	}
	return geom.Point{}, fmt.Errorf("session: %q not visible in window %d (%s)",
		substr, win.ID, win.FileName())
}

// findTag locates substr in win's tag, revealing the window if necessary.
func (s *Session) findTag(win *core.Window, substr string) (geom.Point, error) {
	s.H.Render()
	if p, ok := s.H.FindTag(win, substr); ok {
		return p, nil
	}
	tab, ok := s.H.TabPoint(win)
	if !ok {
		return geom.Point{}, fmt.Errorf("session: window %d has no tab", win.ID)
	}
	s.handle(event.Click(event.Left, tab))
	s.H.Render()
	if p, ok := s.H.FindTag(win, substr); ok {
		return p, nil
	}
	return geom.Point{}, fmt.Errorf("session: %q not in tag of window %d", substr, win.ID)
}

// PointAt left-clicks inside the first occurrence of substr in win's body
// ("just pointing with the left button anywhere in the header line will
// do"), leaving a null selection there.
func (s *Session) PointAt(win *core.Window, substr string) error {
	p, err := s.findBody(win, substr)
	if err != nil {
		return err
	}
	// Land one cell into the token so word expansion has an anchor.
	p.X++
	s.handle(event.Click(event.Left, p))
	return nil
}

// ExecWord middle-clicks the word substr in win's body, executing it.
func (s *Session) ExecWord(win *core.Window, substr string) error {
	p, err := s.findBody(win, substr)
	if err != nil {
		return err
	}
	p.X++
	s.handle(event.Click(event.Middle, p))
	s.H.WaitIdle()
	return nil
}

// ExecTagWord middle-clicks the word substr in win's tag (Close!, Put!).
func (s *Session) ExecTagWord(win *core.Window, substr string) error {
	p, err := s.findTag(win, substr)
	if err != nil {
		return err
	}
	p.X++
	s.handle(event.Click(event.Middle, p))
	s.H.WaitIdle()
	return nil
}

// ExecSweep sweeps from the start of from to the end of to (both in win's
// body) with the middle button, executing the swept text — "executing
// uses *.c by sweeping both 'words' with the middle button".
func (s *Session) ExecSweep(win *core.Window, from, to string) error {
	p0, err := s.findBody(win, from)
	if err != nil {
		return err
	}
	s.H.Render()
	p1, ok := s.H.FindBody(win, to)
	if !ok {
		return fmt.Errorf("session: sweep target %q not visible", to)
	}
	p1.X += len([]rune(to))
	s.handle(event.Sweep(event.Middle, p0, p1))
	s.H.WaitIdle()
	return nil
}

// SelectSweep sweeps a left-button selection from the start of from to
// the start of to.
func (s *Session) SelectSweep(win *core.Window, from, to string) error {
	p0, err := s.findBody(win, from)
	if err != nil {
		return err
	}
	s.H.Render()
	p1, ok := s.H.FindBody(win, to)
	if !ok {
		return fmt.Errorf("session: sweep target %q not visible", to)
	}
	s.handle(event.Sweep(event.Left, p0, p1))
	return nil
}

// CutLine selects win's body line containing substr — from the line's
// left edge to the start of the next line — and cuts it with the
// left-hold/middle-click chord.
func (s *Session) CutLine(win *core.Window, substr string) error {
	p, err := s.findBody(win, substr)
	if err != nil {
		return err
	}
	f := bodyRectLeft(s, win)
	start := geom.Pt(f, p.Y)
	end := geom.Pt(f, p.Y+1)
	s.handle(event.SweepChord(event.Left, start, end, event.Middle))
	return nil
}

// bodyRectLeft returns the x of the first body text cell of win.
func bodyRectLeft(s *Session, win *core.Window) int {
	s.H.Render()
	if p, ok := s.H.FindBody(win, ""); ok {
		return p.X
	}
	return 0
}

// Window finds an open window by its file name.
func (s *Session) Window(name string) (*core.Window, error) {
	w := s.H.WindowByName(name)
	if w == nil {
		return nil, fmt.Errorf("session: no window named %s (errors: %q)",
			name, s.H.Errors().Body.String())
	}
	return w, nil
}

// WindowWithTag finds a window whose tag contains substr.
func (s *Session) WindowWithTag(substr string) (*core.Window, error) {
	for _, w := range s.H.Windows() {
		if strings.Contains(w.Tag.String(), substr) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("session: no window with tag containing %q", substr)
}

// LatestWindow returns the newest window whose file name matches name.
func (s *Session) LatestWindow(name string) (*core.Window, error) {
	var found *core.Window
	for _, w := range s.H.Windows() {
		if w.FileName() == name {
			found = w
		}
	}
	if found == nil {
		return nil, fmt.Errorf("session: no window named %s", name)
	}
	return found, nil
}
