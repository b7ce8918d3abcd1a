package core

import (
	"runtime/debug"
	"slices"
	"strconv"

	"repro/internal/journal"
)

// This file is the session's one change-capture pass. Every mutation of
// window state that the journal or the notify stream reports puts its
// window in a dirty set:
//
//   - text edits through the single splice hook trackWindow installs
//     on each tag and body, whether or not a journal is attached (the
//     hook also journals the splice itself when one is);
//   - selection, scroll origin, column, top row and hidden flag through
//     the Window setters, the only code that writes those fields;
//   - clean/dirty transitions through Window.SetModified.
//
// At the end of each top-level interaction (event, command, file
// operation, apply-queue batch) JournalSweep drains the set: it checks
// the few session-global fields, then visits only the dirty windows, in
// id order, and compares each against its one shadow record (seen).
// From that one comparison come both the journal's placement, scroll,
// selection and clean records and the notify stream's body and tag
// events. A change that is undone before the drain emits nothing, and
// a quiescent drain visits no window at all, so the cost of an
// interaction follows what it changed, not how many windows are open.

// winShadow is what the last drain saw of one window: the fields the
// journal records and the buffer generations notify announced. A new
// window starts with col = -1, which no real column matches, so the
// first drain after creation always journals its placement.
type winShadow struct {
	col      int
	top      int
	hidden   bool
	isDir    bool
	org      int
	sel      [2]Selection
	modified bool
	bodyGen  uint64
	tagGen   uint64
}

// hookSplice installs the one splice observer of w's subwindow sub: it
// marks the window dirty and, with a journal attached, records the
// splice.
func (h *Help) hookSplice(w *Window, sub int) {
	w.Buffer(sub).SetOnSplice(func(off, ndel int, ins string) {
		w.mark()
		if rec := h.rec; rec != nil {
			rec.emit(&journal.Op{Kind: journal.OpSplice, Win: w.ID, Sub: sub, P0: off, P1: ndel, Str1: ins})
		}
	})
}

// swapBody replaces w's body storage wholesale (a paged load or a
// clone). The buffer materializes the whole new text for its splice
// observer on a swap, which only the journal needs; without one the
// observer is detached for the swap, so a paged body stays lazy, and
// the window is marked here instead.
func (h *Help) swapBody(w *Window, swap func() error) error {
	if h.rec == nil {
		w.Body.SetOnSplice(nil)
		defer h.hookSplice(w, SubBody)
	}
	w.mark()
	return swap()
}

// JournalSweep drains the dirty set: it journals every change since the
// last drain, publishes the body and tag events, and writes a checkpoint
// once the op budget since the last one is spent. It runs with the
// actor lock held at the end of every top-level interaction. A panic in
// here is counted and reported like any other; the windows not yet
// drained stay in the set for the next drain.
func (h *Help) JournalSweep() {
	defer h.recoverDrain()
	if rec := h.rec; rec != nil {
		rec.sweepGlobals()
	}
	if len(h.dirty) > 1 {
		slices.SortFunc(h.dirty, func(a, b *Window) int { return a.ID - b.ID })
	}
	armed := h.Notify.Armed()
	for i, w := range h.dirty {
		h.dirty[i] = nil
		w.dirty = false
		if w.h == h {
			h.drainWindow(w, armed)
		}
	}
	h.dirty = h.dirty[:0]
	if rec := h.rec; rec != nil && rec.since >= rec.every {
		rec.since = 0
		rec.w.Checkpoint(encodeSnapshot(h))
	}
}

// recoverDrain is JournalSweep's panic guard. It keeps the windows the
// drain had not reached, then reports through PanicReport, which counts
// the panic and emits the obs "panic" event but never drains.
func (h *Help) recoverDrain() {
	r := recover()
	if r == nil {
		return
	}
	h.dirty = slices.DeleteFunc(h.dirty, func(w *Window) bool { return w == nil })
	h.PanicReport("journal sweep", r, debug.Stack())
}

// drainWindow compares w against its shadow, emits one record or event
// per difference, and brings the shadow up to date.
func (h *Help) drainWindow(w *Window, armed bool) {
	sh := &w.seen
	// The published generation is in vfs gen space (text gen + 1,
	// matching what /mnt/help/<n>/body reports through Stat), so a
	// remote cache can compare it against its own entries.
	if g := w.Body.Gen(); g != sh.bodyGen {
		sh.bodyGen = g
		h.Notify.Publish(w.ID, "body", genDetail(armed, g))
	}
	if g := w.Tag.Gen(); g != sh.tagGen {
		sh.tagGen = g
		h.Notify.Publish(w.ID, "tag", genDetail(armed, g))
	}
	rec := h.rec
	if rec == nil {
		return
	}
	col := h.colIndex(w.col)
	if col != sh.col || w.top != sh.top || w.hidden != sh.hidden || w.IsDir != sh.isDir {
		sh.col, sh.top, sh.hidden, sh.isDir = col, w.top, w.hidden, w.IsDir
		bits := 0
		if w.hidden {
			bits |= 1
		}
		if w.IsDir {
			bits |= 2
		}
		rec.emit(&journal.Op{Kind: journal.OpPlace, Win: w.ID, P0: col, P1: w.top, P2: bits})
	}
	if w.bodyOrg != sh.org {
		sh.org = w.bodyOrg
		rec.emit(&journal.Op{Kind: journal.OpScroll, Win: w.ID, P0: w.bodyOrg})
	}
	for sub := 0; sub < 2; sub++ {
		if s := w.Sel.q[sub]; s != sh.sel[sub] {
			sh.sel[sub] = s
			rec.emit(&journal.Op{Kind: journal.OpSelect, Win: w.ID, Sub: sub, P0: s.Q0, P1: s.Q1})
		}
	}
	if m := w.Body.Modified(); m != sh.modified {
		sh.modified = m
		rec.emit(&journal.Op{Kind: journal.OpClean, Win: w.ID, Flag: !m})
	}
}

// genDetail formats a body/tag event's generation. Formatting costs an
// allocation per event; while nobody has ever listened (notify.Bus.Armed)
// the event goes out as a bare skeleton instead — resume still works,
// and a consumer that later backfills a detail-less body event must
// treat the generation as unknown (assume stale). This keeps the append
// hot path at its pre-notify alloc count for the common session no one
// watches.
func genDetail(armed bool, g uint64) string {
	if !armed {
		return ""
	}
	return string(strconv.AppendUint([]byte("gen "), g+1, 10))
}

// resetJournalShadows makes every window's journaled shadow fields match
// its live state, leaving the notified generations alone: attaching a
// journal starts from a checkpoint of the live session, so nothing
// before it is journaled, while text changes not yet announced still
// are.
func (h *Help) resetJournalShadows() {
	for _, w := range h.byID {
		sh := &w.seen
		sh.col, sh.top, sh.hidden, sh.isDir = h.colIndex(w.col), w.top, w.hidden, w.IsDir
		sh.org = w.bodyOrg
		sh.sel = w.Sel.q
		sh.modified = w.Body.Modified()
	}
}
