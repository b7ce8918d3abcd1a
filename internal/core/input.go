package core

import (
	"repro/internal/event"
	"repro/internal/geom"
)

// Handle feeds one raw input event to help. Mouse states accumulate into
// gestures; each completed gesture is dispatched. Keyboard runes type into
// the subwindow under the mouse ("typed text replaces the selection in the
// subwindow under the mouse"; "typing does not execute commands: newline
// is just a character").
func (h *Help) Handle(e event.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handle(e)
}

func (h *Help) handle(e event.Event) {
	if h.exited.Load() {
		return
	}
	// Panic recovery before the journal sweep (defers run last-first):
	// a panic mid-gesture is caught, reported, and then whatever state
	// the event did reach is still swept into the journal.
	defer h.JournalSweep()
	defer h.recoverPanic("event loop")
	if e.Kbd != nil {
		h.typeRune(e.Kbd.R)
		return
	}
	if e.Mouse == nil {
		return
	}
	h.mousePt = e.Mouse.Pt
	g, done := h.machine.Put(*e.Mouse)
	// Mirror the machine's event-loop-owned tallies into atomics so
	// Metrics() stays consistent from other goroutines.
	h.mPresses.Store(int64(h.machine.Presses))
	h.mTravel.Store(int64(h.machine.Travel))
	if done {
		h.setSweep(nil)
		h.dispatch(g)
		return
	}
	h.trackExecSweep()
}

// trackExecSweep records the range of an in-progress middle-button sweep
// so Render can underline it — "the text being selected for execution is
// underlined" (Figure 2).
func (h *Help) trackExecSweep() {
	g, ok := h.machine.Current()
	if !ok || g.Button != event.Middle {
		h.setSweep(nil)
		return
	}
	h.render() // frames must be current to translate the sweep
	ht := h.hitTest(g.Start)
	if ht.kind != hitWindow {
		h.setSweep(nil)
		return
	}
	f := ht.win.frameFor(ht.sub)
	if f == nil {
		h.setSweep(nil)
		return
	}
	q0 := f.OffsetOf(g.Start)
	q1 := f.OffsetOf(g.End)
	if q1 < q0 {
		q0, q1 = q1, q0
	}
	h.setSweep(&execSweep{win: ht.win, sub: ht.sub, q0: q0, q1: q1})
}

// setSweep is the one writer of the live exec sweep. A change repaints
// the columns of the old and the new sweep, so an underline never
// outlives its sweep.
func (h *Help) setSweep(sw *execSweep) {
	old := h.sweepExec
	if old == sw || old != nil && sw != nil && *old == *sw {
		return
	}
	if old != nil {
		old.win.damage()
	}
	if sw != nil {
		sw.win.damage()
	}
	h.sweepExec = sw
}

// HandleAll feeds a batch of events.
func (h *Help) HandleAll(evs []event.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range evs {
		h.handle(e)
	}
}

// Run drains an event stream until it is empty or Exit executes, rendering
// once at the end.
func (h *Help) Run(s *event.Stream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		e, ok := s.Next()
		if !ok || h.exited.Load() {
			break
		}
		h.handle(e)
	}
	h.render()
}

// dispatch interprets one completed gesture.
func (h *Help) dispatch(g event.Gesture) {
	h.ins.gestures.Inc()
	if h.ins.on && h.ins.sampleGesture() {
		sp := h.Obs.StartSpan("gesture", event.ButtonName(g.Button))
		defer func() { h.ins.gestureHist.Observe(sp.End()) }()
	}
	// Frames must reflect current layout before translating the mouse.
	h.render()
	ht := h.hitTest(g.Start)
	switch ht.kind {
	case hitColumnTab:
		if g.Button == event.Left {
			h.expandColumn(ht.col)
		}
	case hitWindowTab:
		if g.Button == event.Left {
			h.reveal(ht.win)
		}
	case hitScrollBar:
		h.scrollGesture(ht.win, g)
	case hitWindow:
		h.windowGesture(ht, g)
	}
	h.render()
}

// scrollGesture interprets a click in a window's scroll bar: the left
// button scrolls back, the right button scrolls forward — each by the
// number of rows between the top of the bar and the click, so clicking
// low moves far — and the middle button jumps to the proportional
// position in the file.
func (h *Help) scrollGesture(w *Window, g event.Gesture) {
	rows := g.Start.Y - (w.top + 1) + 1
	if rows < 1 {
		rows = 1
	}
	switch g.Button {
	case event.Left:
		w.Scroll(-rows)
	case event.Right:
		w.Scroll(+rows)
	case event.Middle:
		span := h.colOf(w).visibleSpan(w) - 1
		if span < 1 {
			span = 1
		}
		frac := float64(rows-1) / float64(span)
		target := int(frac * float64(w.Body.NLines()))
		if target < 1 {
			target = 1
		}
		w.setOrg(w.Body.LineStart(target))
	}
}

// windowGesture handles gestures that begin over a window's tag or body.
func (h *Help) windowGesture(ht hit, g event.Gesture) {
	w, sub := ht.win, ht.sub
	f := w.frameFor(sub)
	if f == nil {
		return
	}
	switch g.Button {
	case event.Left:
		q0 := f.OffsetOf(g.Start)
		q1 := f.OffsetOf(g.End)
		w.SetSelection(sub, q0, q1)
		h.setCurrent(w, sub)
		// Chorded editing: middle executes Cut, right executes Paste,
		// in the order clicked ("one may even click the middle and then
		// right buttons, while holding the left down, to execute a
		// cut-and-paste").
		for _, c := range g.Chords {
			switch c.Button {
			case event.Middle:
				h.cut()
			case event.Right:
				h.paste()
			}
		}
	case event.Middle:
		q0 := f.OffsetOf(g.Start)
		q1 := f.OffsetOf(g.End)
		if q1 < q0 {
			q0, q1 = q1, q0
		}
		// Asynchronous: the gesture launches the command and the event
		// loop moves on; output streams into Errors as it arrives.
		h.executeAt(w, sub, q0, q1)
	case event.Right:
		if sub == SubTag {
			h.moveWindow(w, g.End)
		}
	}
}

// typeRune types one rune into the subwindow under the mouse. Backspace
// (BS or DEL) deletes the selection, or the rune before a null selection.
func (h *Help) typeRune(r rune) {
	h.mKeystrokes.Inc()
	h.render()
	ht := h.hitTest(h.mousePt)
	if ht.kind != hitWindow {
		return
	}
	w, sub := ht.win, ht.sub
	buf := w.Buffer(sub)
	sel := w.Sel.q[sub]
	if r == '\b' || r == 0x7f {
		if !sel.Empty() {
			buf.Delete(sel.Q0, sel.Q1-sel.Q0)
			w.setSel(sub, Selection{sel.Q0, sel.Q0})
		} else if sel.Q0 > 0 {
			buf.Delete(sel.Q0-1, 1)
			w.setSel(sub, Selection{sel.Q0 - 1, sel.Q0 - 1})
		}
	} else {
		if !sel.Empty() {
			buf.Delete(sel.Q0, sel.Q1-sel.Q0)
		}
		buf.Insert(sel.Q0, string(r))
		w.setSel(sub, Selection{sel.Q0 + 1, sel.Q0 + 1})
	}
	h.setCurrent(w, sub)
	if sub == SubBody && !w.IsDir {
		w.RefreshTag()
	}
	h.keepVisible(w, sub)
}

// keepVisible scrolls so the subwindow's selection stays on screen while
// typing runs past the bottom.
func (h *Help) keepVisible(w *Window, sub int) {
	if sub != SubBody {
		return
	}
	f := w.frameFor(SubBody)
	if f == nil {
		return
	}
	q := w.Sel.q[SubBody].Q0
	if q < f.Org() || q > f.MaxOff() {
		w.scrollTo(q)
	}
}

// Cut deletes the current selection into the snarf buffer.
func (h *Help) Cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cut()
}

func (h *Help) cut() {
	w, sub := h.curWin, h.curSub
	if w == nil {
		return
	}
	sel := w.Sel.q[sub]
	if sel.Empty() {
		return
	}
	buf := w.Buffer(sub)
	buf.Commit()
	h.snarf = buf.Delete(sel.Q0, sel.Q1-sel.Q0)
	buf.Commit()
	w.setSel(sub, Selection{sel.Q0, sel.Q0})
	if sub == SubBody && !w.IsDir {
		w.RefreshTag()
	}
}

// SnarfSel copies the current selection into the snarf buffer without
// deleting ("the cut text is remembered in a buffer").
func (h *Help) SnarfSel() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.snarfSel()
}

func (h *Help) snarfSel() {
	w, sub := h.curWin, h.curSub
	if w == nil {
		return
	}
	sel := w.Sel.q[sub]
	if sel.Empty() {
		return
	}
	h.snarf = w.Buffer(sub).Slice(sel.Q0, sel.Q1-sel.Q0)
}

// Paste replaces the current selection with the snarf buffer and leaves
// the pasted text selected.
func (h *Help) Paste() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.paste()
}

func (h *Help) paste() {
	w, sub := h.curWin, h.curSub
	if w == nil {
		return
	}
	sel := w.Sel.q[sub]
	buf := w.Buffer(sub)
	buf.Commit()
	if !sel.Empty() {
		buf.Delete(sel.Q0, sel.Q1-sel.Q0)
	}
	buf.Insert(sel.Q0, h.snarf)
	buf.Commit()
	w.setSel(sub, Selection{sel.Q0, sel.Q0 + len([]rune(h.snarf))})
	if sub == SubBody && !w.IsDir {
		w.RefreshTag()
	}
}

// PointOfSelection returns the screen position of the current selection's
// start, used by the file interface to place new windows "near the
// current selected text".
func (h *Help) PointOfSelection() (geom.Point, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pointOfSelection()
}

func (h *Help) pointOfSelection() (geom.Point, bool) {
	w, sub := h.curWin, h.curSub
	if w == nil {
		return geom.Point{}, false
	}
	f := w.frameFor(sub)
	if f == nil {
		return geom.Point{}, false
	}
	return f.PointOf(w.Sel.q[sub].Q0)
}
