package core

import "fmt"

// AuditShadows is the oracle for missed marks. Called with the actor
// lock held straight after a drain, it walks every window — the full
// scan the drain itself no longer makes — and reports the first live
// field that differs from the shadow the drain left: a mutation that
// changed state without marking its window. With no journal attached
// only the notified buffer generations are shadowed.
func AuditShadows(h *Help) error {
	if len(h.dirty) != 0 {
		return fmt.Errorf("%d windows still dirty after the drain", len(h.dirty))
	}
	if rec := h.rec; rec != nil {
		cw, cs := rec.currentIDs()
		live := fmt.Sprintf("cur=%d.%d snarf=%q split=%d errors=%d", cw, cs, h.snarf, h.cols[0].r.Max.X, h.errorsID())
		seen := fmt.Sprintf("cur=%d.%d snarf=%q split=%d errors=%d", rec.curWin, rec.curSub, rec.snarf, rec.split, rec.errorsID)
		if live != seen {
			return fmt.Errorf("session state %s, journaled %s", live, seen)
		}
	}
	for _, w := range h.windows() {
		if w.dirty {
			return fmt.Errorf("window %d flagged dirty after the drain", w.ID)
		}
		live := winShadow{bodyGen: w.Body.Gen(), tagGen: w.Tag.Gen()}
		seen := winShadow{bodyGen: w.seen.bodyGen, tagGen: w.seen.tagGen}
		if h.rec != nil {
			live.col, live.top, live.hidden, live.isDir = h.colIndex(w.col), w.top, w.hidden, w.IsDir
			live.org, live.sel, live.modified = w.bodyOrg, w.Sel.q, w.Body.Modified()
			seen = w.seen
		}
		if live != seen {
			return fmt.Errorf("window %d (%s): live %+v, drained %+v", w.ID, w.FileName(), live, seen)
		}
	}
	return nil
}

// AuditRender is the oracle for missed damage. Called with the actor
// lock held, it renders incrementally, then forces a full repaint, and
// reports the first difference between the two screens: a mutation
// that changed what a repaint reads without damaging its column.
func AuditRender(h *Help) error {
	h.render()
	text, attrs := h.screen.String(), h.screen.AttrString()
	h.rendered = false
	h.render()
	if got := h.screen.String(); got != text {
		return fmt.Errorf("incremental render diverged from full render:\nincremental:\n%s\nfull:\n%s", text, got)
	}
	if got := h.screen.AttrString(); got != attrs {
		return fmt.Errorf("incremental render attrs diverged from full render:\nincremental:\n%s\nfull:\n%s", attrs, got)
	}
	return nil
}
