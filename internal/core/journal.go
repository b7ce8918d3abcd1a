package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/text"
	"repro/internal/vfs"
)

// This file threads the write-ahead journal through help. The design
// records state mutations, not input events:
//
//   - Text edits are captured at the single choke point every edit
//     funnels through — text.Buffer's primitive splice hook — so
//     typing, Cut, Paste, Undo, Redo, Get!, and file-interface writes
//     all journal identically, as OpSplice records.
//   - Everything else per window (selections, layout, scroll, clean
//     flags) is captured by the drain (drain.go): mutations mark their
//     window dirty, and at the end of each top-level interaction the
//     drain compares only the dirty windows against their shadows,
//     emitting one record per observed difference. The session-global
//     fields (focus, snarf, column split, Errors window) are compared
//     on every drain. The journal is thereby independent of *why*
//     state changed: a placement heuristic's side effects are
//     journaled as the moves it made, so replay never re-runs the
//     heuristic and cannot diverge from it.
//   - Window creation and close are journaled where they happen, and
//     namespace mutations (Put, tool output, mkdir, bind) arrive
//     through vfs's mutation hook as OpFile records.
//
// Recovery = restore the latest checkpoint snapshot, then apply the op
// tail. Undo history and interaction metrics are deliberately not
// journaled: they are reconstruction conveniences, not session state,
// and their loss across a crash is documented behaviour.

// Recorder connects a Help instance to a journal.Writer.
type Recorder struct {
	h     *Help
	w     *journal.Writer
	every int // checkpoint after this many ops
	since int

	// Shadow of the session-global state; per-window shadows live in
	// each Window (see winShadow).
	split    int
	curWin   int
	curSub   int
	snarf    string
	errorsID int
}

// AttachJournal connects h to jw: every subsequent mutation is
// journaled, and a full checkpoint is written immediately (so the
// journal is self-contained from the first record). checkpointEvery
// bounds the replay tail: a new checkpoint plus compaction happens
// after that many ops. Call RecoverSession first when resuming.
func (h *Help) AttachJournal(jw *journal.Writer, checkpointEvery int) *Recorder {
	h.mu.Lock()
	defer h.mu.Unlock()
	if checkpointEvery <= 0 {
		checkpointEvery = 2048
	}
	rec := &Recorder{
		h:     h,
		w:     jw,
		every: checkpointEvery,
	}
	h.rec = rec
	jw.SetObs(h.Obs)

	h.resetJournalShadows()
	rec.split = h.cols[0].r.Max.X
	rec.curWin, rec.curSub = rec.currentIDs()
	rec.snarf = h.snarf
	rec.errorsID = h.errorsID()
	h.FS.SetOnMutate(rec.fsMutated)

	jw.Checkpoint(encodeSnapshot(h))
	return rec
}

// Journal returns the attached writer, or nil.
func (h *Help) Journal() *journal.Writer {
	if h.rec == nil {
		return nil
	}
	return h.rec.w
}

func (rec *Recorder) currentIDs() (int, int) {
	if rec.h.curWin == nil {
		return 0, 0
	}
	return rec.h.curWin.ID, rec.h.curSub
}

// errorsID is the live Errors window's id, 0 when none exists.
func (h *Help) errorsID() int {
	if h.errors == nil || h.byID[h.errors.ID] != h.errors {
		return 0
	}
	return h.errors.ID
}

// colIndex returns the index of col in h.cols, 0 as a fallback.
func (h *Help) colIndex(col *Column) int {
	for i, c := range h.cols {
		if c == col {
			return i
		}
	}
	return 0
}

func (rec *Recorder) emit(op *journal.Op) {
	rec.w.Append(op)
	rec.since++
}

func (rec *Recorder) fsMutated(kind vfs.MutKind, p string, data []byte, aux string, flag int) {
	str2 := string(data)
	if kind == vfs.MutBind {
		str2 = aux
	}
	rec.emit(&journal.Op{Kind: journal.OpFile, P0: int(kind), P1: flag, Str1: p, Str2: str2})
}

// sweepGlobals journals the session-global fields that moved since the
// last drain; each is O(1) to compare.
func (rec *Recorder) sweepGlobals() {
	h := rec.h
	if cw, cs := rec.currentIDs(); cw != rec.curWin || cs != rec.curSub {
		rec.curWin, rec.curSub = cw, cs
		rec.emit(&journal.Op{Kind: journal.OpCurrent, Win: cw, Sub: cs})
	}
	if h.snarf != rec.snarf {
		rec.snarf = h.snarf
		rec.emit(&journal.Op{Kind: journal.OpSnarf, Str1: h.snarf})
	}
	if split := h.cols[0].r.Max.X; split != rec.split {
		rec.split = split
		rec.emit(&journal.Op{Kind: journal.OpColSplit, P0: split})
	}
	if eid := h.errorsID(); eid != rec.errorsID {
		rec.errorsID = eid
		rec.emit(&journal.Op{Kind: journal.OpErrors, Win: eid})
	}
}

// recoverPanic is deferred by the event loop and command executor: a
// panic anywhere below becomes a crash report plus an Errors-window
// fault instead of a dead session.
func (h *Help) recoverPanic(where string) {
	r := recover()
	if r == nil {
		return
	}
	h.PanicReport(where, r, debug.Stack())
}

// PanicReport handles a recovered panic: count it, flush the journal
// (the record of how we got here must survive), write a crash report
// next to the journal, and surface the fault through the Errors window.
// Reporting must never re-panic, and it never drains: JournalSweep's own
// guard reports through it. Like JournalSweep, it runs with the
// actor lock already held: its callers are in-loop guards and device
// handlers reached through the serialized namespace view.
func (h *Help) PanicReport(where string, r any, stack []byte) {
	h.panicCount++
	defer func() { recover() }()
	if h.Obs != nil {
		h.Obs.Event("panic", fmt.Sprintf("%s: %v", where, r))
	}
	detail := ""
	if h.rec != nil {
		h.rec.w.Flush()
		report := fmt.Sprintf("panic in %s: %v\n\n%s", where, r, stack)
		if name, err := h.rec.w.WriteCrashReport([]byte(report)); err == nil {
			detail = " (crash report " + name + ")"
		}
	}
	if h.OnCrash != nil {
		h.OnCrash(where, fmt.Errorf("recovered panic: %v", r))
	}
	h.reportFault(where, fmt.Errorf("recovered panic: %v%s", r, detail))
}

// ReportPanicAsync reports a panic recovered in code that runs WITHOUT
// the actor lock (the blocking device reads vfs.ReadWait dispatches):
// the report itself needs the lock, so it is applied through the queue.
func (h *Help) ReportPanicAsync(where string, r any, stack []byte) {
	h.enqueue(func() { h.PanicReport(where, r, stack) })
}

// PanicCount reports how many panics the guards have recovered; the
// invariant tests assert it stays zero.
func (h *Help) PanicCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.panicCount
}

// SyncJournal makes the journal durable right now: sweep any pending
// state, write a checkpoint, and flush everything to the medium. It is
// what signal handlers and the daemon's drain call before exiting, so
// a SIGTERM never loses the WAL tail. With no journal attached it is a
// no-op. It returns the first write error the journal has seen.
func (h *Help) SyncJournal() error {
	h.mu.Lock()
	rec := h.rec
	if rec == nil {
		h.mu.Unlock()
		return nil
	}
	h.JournalSweep()
	snap := encodeSnapshot(h)
	h.mu.Unlock()
	// Enqueue outside the lock: a full journal queue must never stall
	// the actor.
	rec.w.Checkpoint(snap)
	return rec.w.Flush()
}

// ---------------------------------------------------------------------
// Checkpoint snapshots.

const snapMagic = "HELPSNAP"
const snapVersion = 1

type snapWindow struct {
	id       int
	col      int
	top      int
	hidden   bool
	isDir    bool
	org      int
	tag      string
	body     string
	sel      [2]Selection
	modified bool
}

type snapshot struct {
	width, height int
	split         int
	nextID        int
	curWin        int
	curSub        int
	snarf         string
	errorsID      int
	windows       []snapWindow
	files         []vfs.DumpEntry
	binds         map[string][]string
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendText writes t's contents in appendStr's format, encoding the
// runes straight into dst: a checkpoint never holds a second copy of a
// body as runes or as a string.
func appendText(dst []byte, t *text.Buffer) []byte {
	n := t.ByteLen()
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = slices.Grow(dst, int(n))
	return t.AppendUTF8(dst, 0, t.Len())
}

func appendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// encodeSnapshot serializes the whole session: geometry, windows
// (full text, selections, flags), focus, snarf, and the namespace.
func encodeSnapshot(h *Help) []byte {
	sw, sh := h.screen.Size()
	b := []byte(snapMagic)
	b = binary.AppendUvarint(b, snapVersion)
	b = appendInt(b, sw)
	b = appendInt(b, sh)
	b = appendInt(b, h.cols[0].r.Max.X)
	b = appendInt(b, h.nextID)
	cw, cs := 0, 0
	if h.curWin != nil {
		cw, cs = h.curWin.ID, h.curSub
	}
	b = appendInt(b, cw)
	b = appendInt(b, cs)
	b = appendStr(b, h.snarf)
	eid := 0
	if h.errors != nil {
		eid = h.errors.ID
	}
	b = appendInt(b, eid)

	wins := h.windows()
	b = appendInt(b, len(wins))
	for _, w := range wins {
		b = appendInt(b, w.ID)
		b = appendInt(b, h.colIndex(w.col))
		b = appendInt(b, w.top)
		b = appendBool(b, w.hidden)
		b = appendBool(b, w.IsDir)
		b = appendInt(b, w.bodyOrg)
		b = appendText(b, w.Tag)
		b = appendText(b, w.Body)
		for sub := 0; sub < 2; sub++ {
			b = appendInt(b, w.Sel.q[sub].Q0)
			b = appendInt(b, w.Sel.q[sub].Q1)
		}
		b = appendBool(b, w.Body.Modified())
	}

	files, binds := h.FS.Dump()
	b = appendInt(b, len(files))
	for _, e := range files {
		b = appendStr(b, e.Path)
		b = appendBool(b, e.Dir)
		b = appendStr(b, string(e.Data))
	}
	b = appendInt(b, len(binds))
	for _, mp := range sortedKeys(binds) {
		b = appendStr(b, mp)
		srcs := binds[mp]
		b = appendInt(b, len(srcs))
		for _, s := range srcs {
			b = appendStr(b, s)
		}
	}
	return b
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapDecoder is a bounds-checked cursor; errSnap on any overrun.
var errSnap = errors.New("core: malformed checkpoint snapshot")

type snapDecoder struct {
	b   []byte
	off int
	err error
}

func (d *snapDecoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || v < int64(-1<<31) || v > int64(1<<31) {
		d.err = errSnap
		return 0
	}
	d.off += n
	return int(v)
}

func (d *snapDecoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errSnap
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.err = errSnap
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *snapDecoder) bool() bool {
	if d.err != nil || d.off >= len(d.b) {
		d.err = errSnap
		return false
	}
	c := d.b[d.off]
	d.off++
	return c != 0
}

func decodeSnapshot(b []byte) (*snapshot, error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return nil, errSnap
	}
	d := snapDecoder{b: b, off: len(snapMagic)}
	if v := d.uint(); d.err == nil && v != snapVersion {
		return nil, fmt.Errorf("core: checkpoint snapshot version %d not supported", v)
	}
	s := &snapshot{}
	s.width = d.int()
	s.height = d.int()
	s.split = d.int()
	s.nextID = d.int()
	s.curWin = d.int()
	s.curSub = d.int()
	s.snarf = d.str()
	s.errorsID = d.int()
	nw := d.int()
	if d.err != nil || nw < 0 || nw > 1<<20 {
		return nil, errSnap
	}
	for i := 0; i < nw; i++ {
		var w snapWindow
		w.id = d.int()
		w.col = d.int()
		w.top = d.int()
		w.hidden = d.bool()
		w.isDir = d.bool()
		w.org = d.int()
		w.tag = d.str()
		w.body = d.str()
		for sub := 0; sub < 2; sub++ {
			w.sel[sub].Q0 = d.int()
			w.sel[sub].Q1 = d.int()
		}
		w.modified = d.bool()
		if d.err != nil {
			return nil, d.err
		}
		s.windows = append(s.windows, w)
	}
	nf := d.int()
	if d.err != nil || nf < 0 || nf > 1<<24 {
		return nil, errSnap
	}
	for i := 0; i < nf; i++ {
		var e vfs.DumpEntry
		e.Path = d.str()
		e.Dir = d.bool()
		data := d.str()
		if !e.Dir {
			e.Data = []byte(data)
		}
		if d.err != nil {
			return nil, d.err
		}
		s.files = append(s.files, e)
	}
	nb := d.int()
	if d.err != nil || nb < 0 || nb > 1<<20 {
		return nil, errSnap
	}
	s.binds = make(map[string][]string, nb)
	for i := 0; i < nb; i++ {
		mp := d.str()
		ns := d.int()
		if d.err != nil || ns < 0 || ns > 1<<16 {
			return nil, errSnap
		}
		srcs := make([]string, 0, ns)
		for j := 0; j < ns; j++ {
			srcs = append(srcs, d.str())
		}
		if d.err != nil {
			return nil, d.err
		}
		s.binds[mp] = srcs
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// ---------------------------------------------------------------------
// Recovery.

// RecoverResult summarizes a successful RecoverSession.
type RecoverResult struct {
	Ops        int
	CkptGen    uint64
	MaxGen     uint64
	Torn       bool
	TornReason string
	Elapsed    time.Duration
}

// RecoverSession restores h from the journal in fsys: the latest
// checkpoint, then the op tail in generation order. It must be called
// on a freshly built help (before AttachJournal); existing windows are
// closed and replaced by the recovered session. Any inconsistency —
// malformed snapshot, op referencing an unknown window, out-of-range
// splice — aborts with an error; nothing in here panics, whatever the
// journal contains.
func RecoverSession(h *Help, fsys journal.Fsys) (res *RecoverResult, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rec != nil {
		return nil, errors.New("core: RecoverSession must run before AttachJournal")
	}
	st, err := journal.Load(fsys)
	if err != nil {
		return nil, err
	}
	if st.Checkpoint == nil {
		return nil, errors.New("core: journal has no checkpoint to recover from")
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: recovery panicked: %v", r)
		}
	}()
	timer := journal.StartReplay(h.Obs)

	snap, err := decodeSnapshot(st.Checkpoint)
	if err != nil {
		return nil, err
	}
	if sw, sh := h.screen.Size(); sw != snap.width || sh != snap.height {
		return nil, fmt.Errorf("core: journal is for a %dx%d screen, this help is %dx%d",
			snap.width, snap.height, sw, sh)
	}
	if err := restoreSnapshot(h, snap); err != nil {
		return nil, err
	}
	for i := range st.Ops {
		if err := applyOp(h, &st.Ops[i]); err != nil {
			return nil, fmt.Errorf("core: replaying op %d (gen %d): %w", i, st.Ops[i].Gen, err)
		}
	}
	h.render()
	return &RecoverResult{
		Ops:        len(st.Ops),
		CkptGen:    st.CkptGen,
		MaxGen:     st.MaxGen,
		Torn:       st.Torn,
		TornReason: st.TornReason,
		Elapsed:    timer.Done(),
	}, nil
}

// restoreSnapshot replaces h's session state with the snapshot's.
func restoreSnapshot(h *Help, snap *snapshot) error {
	for _, w := range h.windows() {
		h.closeWindow(w)
	}
	if len(h.cols) == 2 && snap.split > 0 {
		h.setSplit(snap.split)
	}
	if err := h.FS.RestoreDump(snap.files, snap.binds); err != nil {
		return err
	}
	for i := range snap.windows {
		sw := &snap.windows[i]
		if sw.id <= 0 || h.byID[sw.id] != nil {
			return fmt.Errorf("snapshot window id %d invalid or duplicate", sw.id)
		}
		w := h.adoptWindow(sw.id)
		w.Tag.Load(sw.tag)
		w.Body.Load(sw.body)
		if sw.modified {
			w.SetModified(true)
		}
		placeAdopted(h, w, sw.col, sw.top, sw.hidden, sw.isDir)
		w.setOrg(clampOrg(sw.org, w.Body.Len()))
		for sub := 0; sub < 2; sub++ {
			w.setSel(sub, clampSel(sw.sel[sub], w.Buffer(sub).Len()))
		}
	}
	if snap.nextID > h.nextID {
		h.nextID = snap.nextID
	}
	h.setCurrent(nil, 0)
	if cw := h.byID[snap.curWin]; cw != nil {
		h.setCurrent(cw, snap.curSub)
	}
	h.snarf = snap.snarf
	h.errors = h.byID[snap.errorsID]
	return nil
}

// adoptWindow recreates a journaled window under its original id,
// bypassing the placement heuristic: the heuristic's side effects were
// journaled as explicit place records, so replay positions windows
// from the record, never from a re-run of the heuristic.
func (h *Help) adoptWindow(id int) *Window {
	w := newWindow(id)
	h.byID[id] = w
	h.mWindows.Add(1)
	h.trackWindow(w)
	if id >= h.nextID {
		h.nextID = id + 1
	}
	col := h.cols[0]
	w.setCol(col)
	w.setTop(col.r.Min.Y)
	w.setHidden(true) // until the journaled placement arrives
	col.wins = append(col.wins, w)
	col.sortWins()
	h.journalNewWindow(w)
	if h.OnWindowCreated != nil {
		h.OnWindowCreated(w)
	}
	return w
}

func placeAdopted(h *Help, w *Window, colIdx, top int, hidden, isDir bool) {
	if colIdx < 0 || colIdx >= len(h.cols) {
		colIdx = 0
	}
	dst := h.cols[colIdx]
	if w.col != dst {
		h.colOf(w).removeWindow(w)
		dst.wins = append(dst.wins, w)
		w.setCol(dst)
	}
	if top < dst.r.Min.Y {
		top = dst.r.Min.Y
	}
	if top > dst.r.Max.Y-1 {
		top = dst.r.Max.Y - 1
	}
	w.setTop(top)
	w.setHidden(hidden)
	if w.IsDir != isDir {
		w.IsDir = isDir
		w.mark()
	}
	dst.sortWins()
}

func clampOrg(org, n int) int {
	if org < 0 {
		return 0
	}
	if org > n {
		return n
	}
	return org
}

// applyOp replays one journal record against the live session.
func applyOp(h *Help, op *journal.Op) error {
	needWin := func() (*Window, error) {
		w := h.byID[op.Win]
		if w == nil {
			return nil, fmt.Errorf("unknown window %d", op.Win)
		}
		return w, nil
	}
	switch op.Kind {
	case journal.OpSplice:
		w, err := needWin()
		if err != nil {
			return err
		}
		if op.Sub != SubTag && op.Sub != SubBody {
			return fmt.Errorf("bad subwindow %d", op.Sub)
		}
		return w.Buffer(op.Sub).ApplySplice(op.P0, op.P1, op.Str1)
	case journal.OpClean:
		w, err := needWin()
		if err != nil {
			return err
		}
		if op.Flag {
			w.SetModified(false)
		} else {
			w.SetModified(true)
		}
	case journal.OpSelect:
		w, err := needWin()
		if err != nil {
			return err
		}
		if op.Sub != SubTag && op.Sub != SubBody {
			return fmt.Errorf("bad subwindow %d", op.Sub)
		}
		w.SetSelection(op.Sub, op.P0, op.P1)
	case journal.OpCurrent:
		if op.Win == 0 {
			h.setCurrent(nil, 0)
			return nil
		}
		w, err := needWin()
		if err != nil {
			return err
		}
		h.setCurrent(w, op.Sub)
	case journal.OpSnarf:
		h.snarf = op.Str1
	case journal.OpNewWin:
		if op.Win <= 0 || h.byID[op.Win] != nil {
			return fmt.Errorf("new-window id %d invalid or duplicate", op.Win)
		}
		w := h.adoptWindow(op.Win)
		w.IsDir = op.Flag
	case journal.OpCloseWin:
		w, err := needWin()
		if err != nil {
			return err
		}
		h.closeWindow(w)
	case journal.OpPlace:
		w, err := needWin()
		if err != nil {
			return err
		}
		placeAdopted(h, w, op.P0, op.P1, op.P2&1 != 0, op.P2&2 != 0)
	case journal.OpScroll:
		w, err := needWin()
		if err != nil {
			return err
		}
		w.setOrg(clampOrg(op.P0, w.Body.Len()))
	case journal.OpColSplit:
		if len(h.cols) == 2 && op.P0 > 0 && op.P0 < h.screen.Bounds().Dx() {
			h.setSplit(op.P0)
		}
	case journal.OpErrors:
		if op.Win == 0 {
			h.errors = nil
			return nil
		}
		w, err := needWin()
		if err != nil {
			return err
		}
		h.errors = w
	case journal.OpFile:
		return applyFileOp(h, op)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

func applyFileOp(h *Help, op *journal.Op) error {
	switch vfs.MutKind(op.P0) {
	case vfs.MutWrite:
		return h.FS.WriteFile(op.Str1, []byte(op.Str2))
	case vfs.MutAppend:
		return h.FS.AppendFile(op.Str1, []byte(op.Str2))
	case vfs.MutRemove:
		// Idempotent: the record asserts the path's absence. A replayed
		// close can race helpfs's own cleanup of the window directory.
		if err := h.FS.Remove(op.Str1); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return err
		}
		return nil
	case vfs.MutMkdir:
		return h.FS.MkdirAll(op.Str1)
	case vfs.MutBind:
		return h.FS.Bind(op.Str1, op.Str2, vfs.BindFlag(op.P1))
	}
	return fmt.Errorf("unknown file mutation %d", op.P0)
}
