package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/journal"
	"repro/internal/session"
	"repro/internal/text"
	"repro/internal/userland"
	"repro/internal/world"
)

// The desk workload: one local user, no wire, on a journaled 120x60
// world. Set-up replays the paper's Figures 1-12 and checks every screen
// against figures/; the measured loop is the same user carrying on with
// seeded typing, scrolling, chords, jumps into a paged 32 MiB log, and
// middle-click executions of uses, stack and grep -n.

const (
	deskW, deskH = 120, 60
	logPath      = "/usr/rob/log/big.log"
	logSize      = 32 << 20
	logMarkers   = 8
	logJumps     = 12
	fillerLines  = 6
	pid          = "176153"           // the broken process of Figures 6-7
	xdie2N       = "errs((uchar*)n);" // the use of the global n in Xdie2
	fig4Desc     = "the screen after booting: tools loaded into the right column"
)

// deskLog is the seeded log and what the checks need to know about it:
// which lines hold each grep marker, the lines the user jumps to, and
// the text of every line a check looks at. The file itself is dropped
// once the last set-up has written it, so the benchmark's copy is not
// counted in live_heap_mb.
type deskLog struct {
	data    []byte
	markers []string
	hits    map[string][]int // marker -> 1-based line numbers, in file order
	jumps   []int            // addresses the user jumps to
	lines   map[int]string   // line number -> text, without the newline
}

// Every line is at most ~72 bytes, so a 32 MiB log has over 400,000.
const logMinLines = 400000

func makeLog(seed int64) *deskLog {
	rng := rand.New(rand.NewSource(seed ^ 0x106))
	lg := &deskLog{hits: map[string][]int{}, lines: map[int]string{}}
	for len(lg.markers) < logMarkers {
		m := fmt.Sprintf("ERR%06x", rng.Intn(1<<24))
		if _, dup := lg.hits[m]; !dup {
			lg.hits[m] = nil
			lg.markers = append(lg.markers, m)
		}
	}
	// Marker lines are planted at seeded line numbers spread over the
	// whole file.
	plant := map[int]string{}
	for _, m := range lg.markers {
		for k := rng.Intn(3) + 1; k > 0; k-- {
			ln := rng.Intn(logMinLines) + 1
			if _, taken := plant[ln]; !taken {
				plant[ln] = m
				lg.hits[m] = append(lg.hits[m], ln)
				lg.lines[ln] = ""
			}
		}
	}
	for _, lns := range lg.hits {
		sort.Ints(lns)
	}
	for len(lg.jumps) < logJumps {
		ln := 100000 + rng.Intn(logMinLines-100000)
		lg.jumps = append(lg.jumps, ln)
		lg.lines[ln] = ""
	}
	ops := []string{"read", "write", "open", "exec", "close", "stat"}
	buf := make([]byte, 0, logSize+128)
	sec := 0
	for ln := 1; len(buf) < logSize; ln++ {
		start := len(buf)
		sec += rng.Intn(3)
		status := "ok"
		if m, ok := plant[ln]; ok {
			status = "fail " + m
		}
		buf = fmt.Appendf(buf, "1991-04-16 %02d:%02d:%02d helpd%02d op=%s win=%d bytes=%d %s\n",
			(sec/3600)%24, (sec/60)%60, sec%60, rng.Intn(16), ops[rng.Intn(len(ops))],
			rng.Intn(4096), rng.Intn(1<<16), status)
		if _, want := lg.lines[ln]; want {
			lg.lines[ln] = string(buf[start : len(buf)-1])
		}
	}
	lg.data = buf
	return lg
}

// line returns 1-based line ln without its newline.
func (lg *deskLog) line(ln int) string { return lg.lines[ln] }

// grepWant is what grep -n prints for a marker.
func (lg *deskLog) grepWant(m string) []string {
	var out []string
	for _, ln := range lg.hits[m] {
		out = append(out, fmt.Sprintf("%s:%d:%s", logPath, ln, lg.line(ln)))
	}
	return out
}

// desk is one set-up desk: the world, its journal, and the windows the
// user works in.
type desk struct {
	w        *world.World
	h        *core.Help
	jw       *journal.Writer
	dir      string
	lg       *deskLog
	scratch  *core.Window
	logWin   *core.Window
	execWin  *core.Window
	edit     *core.Window
	cbr      *core.Window
	db       *core.Window
	filler   []string
	probeWin int // a window in the tools' column for the traced direct writes
	build    time.Duration
	boot     time.Duration
}

// setupDesk builds and boots a journaled world, replays and checks the
// figures, and lays the desk out: exec.c, a scratch window with the
// user's tool lines, and the log, opened paged.
func setupDesk(cfg config, idx int, lg *deskLog, figs map[int]string) (*desk, error) {
	d := &desk{lg: lg, dir: filepath.Join(cfg.work, fmt.Sprintf("desk-journal-%d", idx))}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	w, err := world.Build(deskW, deskH)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := w.Boot(); err != nil {
		return nil, err
	}
	d.build, d.boot = t1.Sub(t0), time.Since(t1)
	d.w, d.h = w, w.Help
	if err := w.FS.MkdirAll(filepath.Dir(logPath)); err != nil {
		return nil, err
	}
	if err := w.FS.WriteFile(logPath, lg.data); err != nil {
		return nil, err
	}
	jfs, err := journal.DirFS(d.dir)
	if err != nil {
		return nil, err
	}
	d.jw, err = journal.Open(jfs, journal.Config{Fsync: journal.SyncBatch})
	if err != nil {
		return nil, err
	}
	d.h.AttachJournal(d.jw, 0)

	if err := replayFigures(d, figs); err != nil {
		d.close()
		return nil, fmt.Errorf("%w: %v", errCheck, err)
	}
	if err := d.layout(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// replayFigures runs Figures 1-3 on their own worlds and Figures 4-12 on
// the desk's journaled world, and compares every screen with figures/.
func replayFigures(d *desk, figs map[int]string) error {
	for n := 1; n <= 3; n++ {
		st, err := session.Figure(n, deskW, deskH)
		if err != nil {
			return err
		}
		if err := checkFigure(n, st, figs[n]); err != nil {
			return err
		}
	}
	s := &session.Session{W: d.w, H: d.h}
	s.Snapshot("fig4", fig4Desc)
	if err := s.RunDebugSession(); err != nil {
		return err
	}
	for _, st := range s.Steps {
		var n int
		if _, err := fmt.Sscanf(st.Name, "fig%d", &n); err != nil {
			return fmt.Errorf("step %q: %v", st.Name, err)
		}
		if err := checkFigure(n, st, figs[n]); err != nil {
			return err
		}
	}
	if len(s.Steps) != 9 {
		return fmt.Errorf("figure replay recorded %d steps, want 9 (figures 4-12)", len(s.Steps))
	}
	return nil
}

// readFigures loads figures/fig1.txt .. fig12.txt.
func readFigures(dir string) (map[int]string, error) {
	figs := map[int]string{}
	for n := 1; n <= 12; n++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("fig%d.txt", n)))
		if err != nil {
			return nil, err
		}
		figs[n] = string(b)
	}
	return figs, nil
}

// layout closes what the figure session left open except the tools and
// exec.c, then opens the scratch window and the paged log beside exec.c.
func (d *desk) layout() error {
	h := d.h
	keep := map[string]bool{
		"/help/edit/stf": true, "/help/cbr/stf": true, "/help/db/stf": true,
		"/help/mail/stf": true, world.SrcDir + "/exec.c": true,
	}
	for _, w := range h.Windows() {
		if !keep[w.FileName()] {
			h.CloseWindow(w)
		}
	}
	d.execWin = h.WindowByName(world.SrcDir + "/exec.c")
	d.edit = h.WindowByName("/help/edit/stf")
	d.cbr = h.WindowByName("/help/cbr/stf")
	d.db = h.WindowByName("/help/db/stf")
	if d.execWin == nil || d.edit == nil || d.cbr == nil || d.db == nil {
		return fmt.Errorf("desk: a window of the figure session is missing")
	}
	h.MoveWindowToColumn(d.execWin, 0)
	// Show Xdie2's errs((uchar*)n), the global n of Figure 10.
	ln := 1 + strings.Count(strings.Split(d.execWin.Body.String(), xdie2N)[0], "\n")
	if _, err := h.OpenFile(d.execWin.FileName(), strconv.Itoa(ln)); err != nil {
		return err
	}

	var b strings.Builder
	for _, m := range d.lg.markers {
		fmt.Fprintf(&b, "grep -n %s %s\n", m, logPath)
	}
	for _, ln := range d.lg.jumps {
		fmt.Fprintf(&b, "%s:%d\n", logPath, ln)
	}
	fmt.Fprintf(&b, "stack of %s\n", pid)
	rng := rand.New(rand.NewSource(int64(len(d.lg.jumps) + d.lg.jumps[0])))
	d.filler = nil
	for i := 0; i < fillerLines; i++ {
		line := fmt.Sprintf("note%d %s", i, words(rng, 5))
		d.filler = append(d.filler, line)
		b.WriteString(line + "\n")
	}
	d.scratch = h.NewWindowIn(0)
	d.scratch.Body.SetString(b.String())
	d.scratch.Body.SetClean()
	d.scratch.SetNameTag("/usr/rob/tmp/desk")

	lw, err := h.OpenFile(logPath, "")
	if err != nil {
		return err
	}
	if !lw.Body.Paged() {
		return fmt.Errorf("desk: %s did not open paged", logPath)
	}
	h.MoveWindowToColumn(lw, 0)
	d.logWin = lw
	pw := h.NewWindowIn(1)
	pw.SetNameTag("/usr/rob/tmp/probe")
	d.probeWin = pw.ID
	// Column 0 top to bottom: the scratch window whole, exec.c, the log.
	r := h.ColumnRect(0)
	h.MoveWindow(d.scratch, geom.Pt(r.Min.X, r.Min.Y))
	h.MoveWindow(d.execWin, geom.Pt(r.Min.X, r.Min.Y+strings.Count(b.String(), "\n")+2))
	h.MoveWindow(lw, geom.Pt(r.Min.X, r.Max.Y-r.Dy()/4))
	h.WaitIdle()
	h.Render()
	return nil
}

func words(rng *rand.Rand, n int) string {
	var ws []string
	for i := 0; i < n; i++ {
		var b strings.Builder
		for k := rng.Intn(6) + 2; k > 0; k-- {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		ws = append(ws, b.String())
	}
	return strings.Join(ws, " ")
}

func (d *desk) close() {
	d.h.KillAll()
	d.h.WaitIdleFor(2 * time.Second)
	if d.jw != nil {
		d.jw.Close()
	}
	os.RemoveAll(d.dir)
}

// ---- the user ----------------------------------------------------------------

// user drives a desk with gestures. Every gesture is one timed op: the
// events through Help.Handle, then Help.Render — what the user waits
// for before the screen shows the result.
type user struct {
	d      *desk
	rng    *rand.Rand
	st     *opStats
	sl     *spanLog
	checks []error
	probe  int                      // tool executions so far, for the traced direct calls
	spent  map[string]time.Duration // time in each scene, checks included
}

func (u *user) check(err error) {
	if err != nil && len(u.checks) < 16 {
		u.checks = append(u.checks, err)
	}
}

// gesture feeds one gesture's events and repaints. A panic the guards
// recover while it runs makes it a failed op and the run incorrect.
func (u *user) gesture(c opClass, evs []event.Event) {
	h := u.d.h
	op := u.sl.nextOp()
	panics := h.PanicCount()
	t0 := time.Now()
	for _, e := range evs {
		h.Handle(e)
	}
	t1 := time.Now()
	if c == classExec {
		h.WaitIdle() // the tool's output has landed
	}
	t2 := time.Now()
	h.Render()
	t3 := time.Now()
	var err error
	if n := h.PanicCount() - panics; n > 0 {
		err = fmt.Errorf("desk: the guards recovered %d panics during a gesture (errors: %q)", n, clip(h.ErrorsText()))
		u.check(err)
	}
	u.st.record(c, t3.Sub(t0), err)
	if u.sl != nil {
		top := u.sl.add("desk.gesture", t0, t3, -1, op)
		u.sl.add("core.handle", t0, t1, top, op)
		if c == classExec {
			u.sl.add("core.wait_idle", t1, t2, top, op)
		}
		u.sl.add("core.render", t2, t3, top, op)
	}
}

// find locates substr on screen in w's body, revealing w with a tab
// click (a gesture of its own) when it is covered or scrolled off.
func (u *user) find(w *core.Window, substr string) (geom.Point, bool) {
	h := u.d.h
	if p, ok := h.FindBody(w, substr); ok {
		return p, true
	}
	tab, ok := h.TabPoint(w)
	if !ok {
		return geom.Point{}, false
	}
	u.gesture(classRead, event.Click(event.Left, tab))
	return h.FindBody(w, substr)
}

// pointAt left-clicks one cell into substr: a null selection there.
func (u *user) pointAt(w *core.Window, substr string) bool {
	p, ok := u.find(w, substr)
	if !ok {
		u.check(fmt.Errorf("desk: %q not on screen in %s", substr, w.FileName()))
		return false
	}
	p.X++
	u.gesture(classRead, event.Click(event.Left, p))
	return true
}

// scene is one seeded piece of desk work.
type scene struct {
	name string
	run  func(u *user)
}

var scenes = []scene{
	{"type", (*user).typeBurst},
	{"scroll", (*user).scroll},
	{"chord", (*user).chord},
	{"jump", (*user).jump},
	{"tool", (*user).tool},
}

// figureScript is the paper's worked example as internal/session replays
// it, one entry per user action, sorted into the desk's scenes. It is
// the only record of desk use the repository holds, so the scene
// weights are its counts: jump 8, tool 5, chord 2, type 1. The tag
// built-ins Close! (Figure 9) and Put! (Figure 12) have no scene. The
// script never scrolls; scrolling the paged log is given the least
// weight, 1, which is an assumption.
var figureScript = []struct {
	fig   int
	scene string
}{
	{1, "jump"}, {1, "jump"}, // point at errs.c, then file.c, in the directory; Open
	{2, "chord"},                          // select a profile line; Cut
	{3, "type"}, {3, "jump"}, {3, "jump"}, // type help.c's path, Open; point at dat.h, Open
	{5, "tool"}, {6, "tool"}, {7, "tool"}, // headers; messages; stack
	{8, "jump"}, {9, "jump"}, // Open text.c:32; Open exec.c:252
	{10, "tool"},               // uses *.c
	{11, "jump"}, {11, "jump"}, // Open help.c:35; Open exec.c:213
	{12, "chord"}, {12, "tool"}, // cut the line n = 0;; mk
}

// sceneWeights counts figureScript by scene, plus the assumed scroll.
func sceneWeights() (map[string]int, int) {
	w := map[string]int{"scroll": 1}
	for _, a := range figureScript {
		w[a.scene]++
	}
	total := 0
	for _, n := range w {
		total += n
	}
	return w, total
}

var sceneWeight, sceneTotal = sceneWeights()

func (u *user) step() {
	x := u.rng.Intn(sceneTotal)
	for _, s := range scenes {
		if x < sceneWeight[s.name] {
			t0 := time.Now()
			s.run(u)
			u.spent[s.name] += time.Since(t0)
			return
		}
		x -= sceneWeight[s.name]
	}
}

// tool executes one of the desk's tools, each as likely: uses and stack,
// which the figures run, and grep -n over the log.
func (u *user) tool() {
	switch u.rng.Intn(3) {
	case 0:
		u.uses()
	case 1:
		u.stack()
	default:
		u.grep()
	}
}

// typeBurst clicks at the end of a filler line, types a few words and
// backspaces them away again. The words must land at the click, and the
// backspaces must leave the body as it was.
func (u *user) typeBurst() {
	line := u.d.filler[u.rng.Intn(len(u.d.filler))]
	p, ok := u.find(u.d.scratch, line)
	if !ok {
		u.check(fmt.Errorf("desk: filler line %q not on screen", line))
		return
	}
	before := u.d.scratch.Body.String()
	at := strings.Index(before, line+"\n") + len(line)
	p.X += len(line)
	u.gesture(classRead, event.Click(event.Left, p))
	s := " " + words(u.rng, u.rng.Intn(3)+1)
	for _, r := range s {
		u.gesture(classWrite, []event.Event{event.KbdEvent(r)})
	}
	u.check(checkEdit("typing "+strconv.Quote(s), u.d.scratch.Body.String(), before[:at]+s+before[at:]))
	for range s {
		u.gesture(classWrite, []event.Event{event.KbdEvent('\b')})
	}
	u.check(checkEdit("backspacing "+strconv.Quote(s), u.d.scratch.Body.String(), before))
}

// scroll clicks in the log's scroll bar: right button forward, left
// button back, by the rows above the click.
func (u *user) scroll() {
	h, lw := u.d.h, u.d.logWin
	if lw.Hidden() {
		tab, ok := h.TabPoint(lw)
		if !ok {
			u.check(fmt.Errorf("desk: log window has no tab"))
			return
		}
		u.gesture(classRead, event.Click(event.Left, tab))
	}
	// The scroll bar is the column's second cell column, beside the body.
	x := h.ColumnRect(h.ColumnIndexOf(lw)).Min.X + 1
	rows := h.VisibleSpan(lw) - 1
	if rows < 1 {
		rows = 1
	}
	at := geom.Pt(x, lw.Top()+1+u.rng.Intn(rows))
	b := event.Right
	if u.rng.Intn(3) == 0 {
		b = event.Left
	}
	u.gesture(classRead, event.Click(b, at))
}

// chord cuts a filler line with the left-middle chord and pastes it back
// with left-right at the same place. The cut must remove exactly the
// line into the snarf buffer, and the paste must restore the body.
func (u *user) chord() {
	line := u.d.filler[u.rng.Intn(len(u.d.filler))]
	p, ok := u.find(u.d.scratch, line)
	if !ok {
		u.check(fmt.Errorf("desk: filler line %q not on screen", line))
		return
	}
	before := u.d.scratch.Body.String()
	at := strings.Index(before, line+"\n")
	start, end := p, geom.Pt(p.X, p.Y+1)
	u.gesture(classWrite, event.SweepChord(event.Left, start, end, event.Middle))
	u.check(checkEdit("cut", u.d.scratch.Body.String(), before[:at]+before[at+len(line)+1:]))
	u.check(checkEdit("snarf after cut", u.d.h.Snarf(), line+"\n"))
	u.gesture(classWrite, event.ChordClick(event.Left, start, event.Right))
	u.check(checkEdit("paste", u.d.scratch.Body.String(), before))
}

// jump points at a log address in the scratch window and executes Open
// in the edit tool; the log window must then select that line.
func (u *user) jump() {
	ln := u.d.lg.jumps[u.rng.Intn(len(u.d.lg.jumps))]
	addr := fmt.Sprintf("%s:%d", logPath, ln)
	if !u.pointAt(u.d.scratch, addr) {
		return
	}
	p, ok := u.find(u.d.edit, "Open")
	if !ok {
		u.check(fmt.Errorf("desk: Open not on screen"))
		return
	}
	p.X++
	u.gesture(classWrite, event.Click(event.Middle, p))
	u.d.h.WaitIdle()
	got := u.d.logWin.SelectedText(core.SubBody)
	if want := u.d.lg.line(ln); strings.TrimSuffix(got, "\n") != want {
		u.check(fmt.Errorf("desk: Open %s selected %q, want %q", addr, clip(got), clip(want)))
	}
}

// uses points at n in exec.c and sweeps "uses *.c" in the C browser.
func (u *user) uses() {
	p, ok := u.find(u.d.execWin, xdie2N)
	if !ok {
		u.check(fmt.Errorf("desk: %q not on screen in exec.c", xdie2N))
		return
	}
	p.X += strings.Index(xdie2N, "n);")
	u.gesture(classRead, event.Click(event.Left, p))
	p0, ok := u.find(u.d.cbr, "uses")
	if !ok {
		u.check(fmt.Errorf("desk: uses not on screen"))
		return
	}
	p1, ok := u.d.h.FindBody(u.d.cbr, "*.c")
	if !ok {
		u.check(fmt.Errorf("desk: *.c not on screen"))
		return
	}
	p1.X += 3
	u.gesture(classExec, event.Sweep(event.Middle, p0, p1))
	u.toolOutput(world.SrcDir+"/uses", []string{"help.c:35"}, "uses *.c", u.d.cbr)
}

// stack points at the process number and executes stack in the
// debugger tool.
func (u *user) stack() {
	if !u.pointAt(u.d.scratch, pid) {
		return
	}
	p, ok := u.find(u.d.db, "stack")
	if !ok {
		u.check(fmt.Errorf("desk: stack not on screen"))
		return
	}
	p.X++
	u.gesture(classExec, event.Click(event.Middle, p))
	u.toolOutput("", []string{
		"strlen(s=0x0) called from textinsert+0x30 text.c:32",
		"errs(s=0x0) called from Xdie2+0x14 exec.c:252",
	}, "stack", u.d.db)
}

// grep middle-sweeps one of the grep -n lines in the scratch window.
func (u *user) grep() {
	m := u.d.lg.markers[u.rng.Intn(len(u.d.lg.markers))]
	line := fmt.Sprintf("grep -n %s %s", m, logPath)
	p, ok := u.find(u.d.scratch, line)
	if !ok {
		u.check(fmt.Errorf("desk: %q not on screen", line))
		return
	}
	u.gesture(classExec, event.Sweep(event.Middle, p, geom.Pt(p.X+len(line), p.Y)))
	want := u.d.lg.grepWant(m)
	u.check(checkLines("grep -n", u.d.h.ErrorsText(), want))
	u.closeErrors()
	if u.sl != nil && u.probeDue() {
		u.probeTool(line, u.d.scratch, "")
		u.probeGrep(m)
	}
}

// toolOutput checks the output of a tool that opened a window (name, or
// the newest window when name is empty), then closes that window.
func (u *user) toolOutput(name string, want []string, line string, from *core.Window) {
	h := u.d.h
	wins := h.Windows()
	var out *core.Window
	for _, w := range wins {
		if (name != "" && w.FileName() == name) || (name == "" && strings.Contains(w.Tag.String(), pid+" stack")) {
			out = w
		}
	}
	if out == nil {
		u.check(fmt.Errorf("desk: %s opened no output window (errors: %q)", line, clip(h.ErrorsText())))
		return
	}
	u.check(checkLines(line, out.Body.String(), want))
	h.CloseWindow(out)
	u.closeErrors()
	if u.sl != nil && u.probeDue() {
		u.probeTool(line, from, name)
	}
}

// closeErrors closes the Errors window, so its size never grows with
// the run.
func (u *user) closeErrors() {
	h := u.d.h
	for _, w := range h.Windows() {
		if strings.HasPrefix(w.Tag.String(), "Errors\t") {
			h.CloseWindow(w)
		}
	}
}

func (u *user) probeDue() bool {
	u.probe++
	return u.probe%2 == 1
}

// probeTool times the same tool line through Help.Execute, and through
// shell.Shell.Run with the core bypassed, then removes what they opened.
func (u *user) probeTool(line string, from *core.Window, outName string) {
	h := u.d.h
	op := u.sl.nextOp()
	t0 := time.Now()
	h.Execute(from, line)
	u.sl.add("core.exec", t0, time.Now(), -1, op)
	var out bytes.Buffer
	ctx := u.d.w.Shell.NewContext(&out, &out)
	ctx.Dir = from.Dir()
	t1 := time.Now()
	u.d.w.Shell.Run(ctx, line)
	u.sl.add("shell.run", t1, time.Now(), -1, op)
	h.WaitIdle()
	for _, w := range h.Windows() {
		if (outName != "" && w.FileName() == outName) || strings.Contains(w.Tag.String(), pid+" stack") {
			h.CloseWindow(w)
		}
	}
	u.closeErrors()
}

// probeGrep times userland's grep on the log directly.
func (u *user) probeGrep(m string) {
	var out bytes.Buffer
	ctx := u.d.w.Shell.NewContext(&out, &out)
	op := u.sl.nextOp()
	t0 := time.Now()
	userland.Grep(ctx, []string{"grep", "-n", m, logPath})
	u.sl.add("userland.grep", t0, time.Now(), -1, op)
	u.check(checkLines("userland grep", out.String(), u.d.lg.grepWant(m)))
}

// probeText times a screenful read at a random line of the paged log
// through text.Buffer, on the actor.
func probeText(h *core.Help, b *text.Buffer, rng *rand.Rand, sl *spanLog) {
	ln := rng.Intn(b.NLines()) + 1
	done := make(chan struct{})
	var t0, t1 time.Time
	h.Apply(func() {
		t0 = time.Now()
		off := b.LineStart(ln)
		end := b.LineStart(ln + deskH)
		_ = b.Slice(off, end-off)
		t1 = time.Now()
		close(done)
	})
	<-done
	sl.add("text.scroll", t0, t1, -1, sl.nextOp())
}

// measure runs the user for dur and returns the summary, the time spent
// in each scene, and the failed checks. With a span log it also makes
// the traced direct calls and samples the actor.
func (d *desk) measure(dur time.Duration, seed int64, sl *spanLog, sampler *spanLog) (summary, map[string]time.Duration, []error) {
	t0 := time.Now()
	u := &user{d: d, rng: rand.New(rand.NewSource(seed)), st: newOpStats(t0), sl: sl, spent: map[string]time.Duration{}}
	until := t0.Add(dur)
	var wg sync.WaitGroup
	if sampler != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampleActor(d.h, until, sampler)
		}()
	}
	probeRng := rand.New(rand.NewSource(seed + 1))
	for n := 0; time.Now().Before(until); n++ {
		u.step()
		if sl != nil && n%4 == 0 {
			probeText(d.h, d.logWin.Body, probeRng, sl)
			d.probeFS(sl)
		}
		if len(u.checks) > 0 {
			break
		}
	}
	wg.Wait()
	// A panic outside any gesture, in set-up or in a tool still running,
	// is caught here: the desk's world starts with none.
	if n := d.h.PanicCount(); n > 0 && len(u.checks) == 0 {
		u.check(fmt.Errorf("desk: the guards recovered %d panics", n))
	}
	return summarize([]*opStats{u.st}, time.Since(t0)), u.spent, u.checks
}

// sceneShares is each scene's share of the measured time, for the table.
func sceneShares(spent map[string]time.Duration) []metric {
	var total time.Duration
	for _, t := range spent {
		total += t
	}
	var ms []metric
	for _, s := range scenes {
		if total > 0 {
			ms = append(ms, metric{name: "scene." + s.name + "_share", value: float64(spent[s.name]) / float64(total), unit: "fraction"})
		}
	}
	return ms
}

// probeFS times a direct read of the scratch body and a direct write of
// a probe window's body on the world's namespace.
func (d *desk) probeFS(sl *spanLog) {
	fs := d.w.FS
	op := sl.nextOp()
	t0 := time.Now()
	fs.ReadFile(fmt.Sprintf("%s/%d/body", mnt, d.scratch.ID))
	t1 := time.Now()
	sl.add("vfs.read", t0, t1, -1, op)
	t2 := time.Now()
	fs.WriteFile(fmt.Sprintf("%s/%d/body", mnt, d.probeWin), []byte("probe\n"))
	sl.add("vfs.write", t2, time.Now(), -1, op)
}

// runDesk sets the desk up setupReps times, measures the last one, and
// checks it.
func runDesk(cfg config) (*result, error) {
	figs, err := readFigures(cfg.figures)
	if err != nil {
		return nil, err
	}
	lg := makeLog(cfg.seed)
	var setups []float64
	var d *desk
	for i := 0; !setupDone(setups); i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		d, err = setupDesk(cfg, i, lg, figs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	lg.data = nil
	dur := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		sum, spent, checks := d.measure(dur, cfg.seed, nil, nil)
		d.h.WaitIdle()
		d.jw.Flush() // no checkpoint in flight when the heap is measured
		heap := liveHeapMB()
		res := &result{attempted: sum.ops, failed: sum.failed}
		if len(checks) > 0 {
			return res, fmt.Errorf("%w: %v", errCheck, checks[0])
		}
		res.metrics, res.extra = endToEnd(sum, setups, heap)
		res.extra = append(res.extra, sceneShares(spent)...)
		return res, nil
	}

	c0 := helpCounters(d.h)
	stA, _, checks := d.measure(dur/2, cfg.seed, nil, nil)
	c1 := helpCounters(d.h)
	if len(checks) > 0 {
		return &result{attempted: stA.ops}, fmt.Errorf("%w: %v", errCheck, checks[0])
	}
	tr := newTracer()
	var stB summary
	shares, err := profiled(traceDir(cfg.work), cfg.workload, func() {
		stB, _, checks = d.measure(dur/2, cfg.seed, tr.log(), tr.log())
	})
	if err != nil {
		return nil, err
	}
	res := &result{attempted: stA.ops + stB.ops, failed: stA.failed + stB.failed}
	if len(checks) > 0 {
		return res, fmt.Errorf("%w: %v", errCheck, checks[0])
	}
	if err := tr.write(filepath.Join(traceDir(cfg.work), cfg.workload+".spans.jsonl")); err != nil {
		return nil, err
	}
	lm := map[string]float64{}
	lm["vfs.read_us"] = median(tr.durations("vfs.read"))
	lm["vfs.write_us"] = median(tr.durations("vfs.write"))
	waits := tr.durations("core.apply_wait")
	lm["core.apply_wait_p50_us"] = quantileF(waits, 0.50)
	lm["core.apply_wait_p99_us"] = quantileF(waits, 0.99)
	lm["core.sweep_us"] = median(tr.durations("core.sweep"))
	lm["core.handle_us"] = median(tr.durations("core.handle"))
	lm["core.render_us"] = median(tr.durations("core.render"))
	lm["core.exec_us"] = median(tr.durations("core.exec"))
	lm["shell.run_us"] = median(tr.durations("shell.run"))
	lm["text.scroll_us"] = median(tr.durations("text.scroll"))
	lm["text.resident_mb"] = float64(d.h.MemBytes()) / (1 << 20)
	lm["userland.grep_ms"] = median(tr.durations("userland.grep")) / 1e3
	dc := c1.minus(c0)
	opsA := float64(stA.ops)
	lm["journal.records_per_op"] = float64(dc.records) / opsA
	lm["journal.bytes_per_op"] = float64(dc.bytes) / opsA
	lm["notify.events_per_op"] = float64(dc.events) / opsA
	lm["world.build_ms"] = ms(d.build)
	lm["world.boot_ms"] = ms(d.boot)
	lm["trace.overhead_frac"] = 1 - stB.rate/stA.rate
	res.metrics = layerMetrics(lm, shares)
	return res, nil
}
