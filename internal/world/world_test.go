package world

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
)

func build(t *testing.T) *World {
	t.Helper()
	w, err := Build(120, 40)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// lineOf returns 1-based line of the first occurrence of needle.
func lineOf(content, needle string) int {
	idx := strings.Index(content, needle)
	if idx < 0 {
		return -1
	}
	return strings.Count(content[:idx], "\n") + 1
}

// TestPaperCoordinates pins every source coordinate the figures cite.
func TestPaperCoordinates(t *testing.T) {
	w := build(t)
	read := func(p string) string {
		data, err := w.FS.ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return string(data)
	}
	cases := []struct {
		file   string
		needle string
		line   int
	}{
		{SrcDir + "/dat.h", "uchar *n;", 136},
		{SrcDir + "/help.c", `n = "a test string";`, 35},
		{SrcDir + "/exec.c", "c->fn(0, 0, 0, 0);", 101},
		{SrcDir + "/exec.c", "if(lookup(&cmd))", 207},
		{SrcDir + "/exec.c", "n = 0;", 213},
		{SrcDir + "/exec.c", "errs((uchar*)n);", 252},
		{SrcDir + "/text.c", "n = strlen((char*)s);", 32},
		{SrcDir + "/errs.c", "textinsert(1, &p->body, s, p->body.nchars, 1);", 34},
		{SrcDir + "/ctrl.c", "for(;;){", 320},
		{SrcDir + "/ctrl.c", "execute(t, p0, p1);", 331},
		{"/sys/src/libc/port/strlen.c", "return strchr(s, 0) - s;", 7},
		{"/sys/src/libc/mips/strchr.s", "MOVW\t0(R3), R5", 34},
	}
	for _, c := range cases {
		if got := lineOf(read(c.file), c.needle); got != c.line {
			t.Errorf("%s: %q at line %d, want %d", c.file, c.needle, got, c.line)
		}
	}
}

func TestSourceTreeComplete(t *testing.T) {
	w := build(t)
	for name := range sourceFiles() {
		if !w.FS.Exists(SrcDir + "/" + name) {
			t.Errorf("missing %s", name)
		}
	}
}

func TestBootScreen(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	// Figure 4: Boot window plus the four tool windows.
	if len(w.Help.Windows()) != 5 {
		t.Errorf("windows after boot = %d", len(w.Help.Windows()))
	}
	screen := w.Help.Screen().String()
	for _, want := range []string{
		"help/Boot", "Exit",
		"/help/edit/stf", "/help/cbr/stf", "/help/db/stf", "/help/mail/stf",
		"headers messages delete reread send",
		"stack", "Cut Paste Snarf",
	} {
		if !strings.Contains(screen, want) {
			t.Errorf("boot screen missing %q:\n%s", want, screen)
		}
	}
}

func TestProcessTable(t *testing.T) {
	w := build(t)
	p := w.Procs.Get(176153)
	if p == nil || p.State != "Broken" {
		t.Fatalf("crashed process = %+v", p)
	}
	banner := p.CrashBanner()
	// The banner must match Sean's mail verbatim.
	mbox, _ := w.FS.ReadFile(MboxPath)
	for _, line := range strings.Split(strings.TrimSpace(banner), "\n") {
		if !strings.Contains(string(mbox), line) {
			t.Errorf("mailbox missing crash line %q", line)
		}
	}
	if !w.FS.Exists("/proc/176153/status") {
		t.Error("/proc not mounted")
	}
}

// selectWord points help's current selection at the first occurrence of
// word in win's body and exports it as $helpsel would be.
func selectWord(t *testing.T, w *World, win *core.Window, word string) {
	t.Helper()
	body := win.Body.String()
	off := strings.Index(body, word)
	if off < 0 {
		t.Fatalf("%q not in window %d body", word, win.ID)
	}
	q := len([]rune(body[:off])) + 1
	win.SetSelection(core.SubBody, q, q)
	w.Help.SetCurrent(win, core.SubBody)
}

func TestDebuggerStackTool(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	// Open Sean's mail content in a window (simulating Figure 6 state).
	msg := w.Help.NewWindow()
	msg.Body.SetString("i tried your new help and got this:\nhelp 176153: user TLB miss (load or fetch) badvaddr=0x0\n")
	selectWord(t, w, msg, "176153")

	// Execute "stack" in the db tool window context.
	stf := w.Help.WindowByName("/help/db/stf")
	if stf == nil {
		t.Fatal("db tool window missing")
	}
	w.Help.Execute(stf, "stack")

	// A traceback window appears, named into the source directory.
	var stackWin *core.Window
	for _, win := range w.Help.Windows() {
		if strings.Contains(win.Tag.String(), "stack") && strings.Contains(win.Tag.String(), SrcDir) {
			stackWin = win
		}
	}
	if stackWin == nil {
		t.Fatalf("no stack window; errors: %q", w.Help.Errors().Body.String())
	}
	body := stackWin.Body.String()
	for _, want := range []string{
		"last exception: TLB miss (load or fetch)",
		"/sys/src/libc/mips/strchr.s:34 strchr+0x68? MOVW 0(R3),R5",
		"strlen(s=0x0) called from textinsert+0x30 text.c:32",
		"textinsert(sel=0x1,t=0x40e60,s=0x0,q0=0xd,full=0x1) called from errs+0xe8 errs.c:34",
		"errs(s=0x0) called from Xdie2+0x14 exec.c:252",
		"execute(t=0x3ebbc,p0=0x2,p1=0x2) called from control+0x430 ctrl.c:331",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("stack window missing %q:\n%s", want, body)
		}
	}
	// The window's context is the source dir, so Open on "text.c:32"
	// resolves there (Figure 8).
	if stackWin.Dir() != SrcDir {
		t.Errorf("stack window dir = %q", stackWin.Dir())
	}
}

func TestOpenFromStackTrace(t *testing.T) {
	w := build(t)
	stack := w.Help.NewWindow()
	stack.Tag.SetString(SrcDir + "/\t176153 stack\tClose!")
	stack.Tag.SetClean()
	stack.Body.SetString("strlen(s=0x0) called from textinsert+0x30 text.c:32\n")
	// Point at "text.c:32" and Open: two button clicks in the paper.
	selectWord(t, w, stack, "ext.c:32")
	w.Help.Execute(stack, "Open")
	opened := w.Help.WindowByName(SrcDir + "/text.c")
	if opened == nil {
		t.Fatalf("text.c not opened; errors: %q", w.Help.Errors().Body.String())
	}
	ln := opened.Body.LineAt(opened.Sel.Of(core.SubBody).Q0)
	if ln != 32 {
		t.Errorf("opened at line %d, want 32", ln)
	}
	if got := opened.SelectedText(core.SubBody); !strings.Contains(got, "strlen((char*)s)") {
		t.Errorf("selected %q", got)
	}
}

func TestUsesToolFindsFourCoordinates(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	// Open exec.c and point at the n in "errs((uchar*)n);" (Figure 9→10).
	execWin, err := w.Help.OpenFile(SrcDir+"/exec.c", "252")
	if err != nil {
		t.Fatal(err)
	}
	body := execWin.Body.String()
	off := strings.Index(body, "errs((uchar*)n)")
	q := len([]rune(body[:off+len("errs((uchar*)")]))
	execWin.SetSelection(core.SubBody, q, q)
	w.Help.SetCurrent(execWin, core.SubBody)

	cbr := w.Help.WindowByName("/help/cbr/stf")
	w.Help.Execute(cbr, "uses")

	usesWin := w.Help.WindowByName(SrcDir + "/uses")
	if usesWin == nil {
		t.Fatalf("no uses window; errors: %q", w.Help.Errors().Body.String())
	}
	got := strings.TrimSpace(usesWin.Body.String())
	lines := strings.Split(got, "\n")
	if len(lines) != 4 {
		t.Fatalf("uses found %d coordinates, want 4 (paper Figure 10):\n%s", len(lines), got)
	}
	want := []string{"dat.h:136", "exec.c:213", "exec.c:252", "help.c:35"}
	for i, wline := range want {
		if lines[i] != wline {
			t.Errorf("uses line %d = %q, want %q", i, lines[i], wline)
		}
	}
}

func TestDeclTool(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	execWin, err := w.Help.OpenFile(SrcDir+"/exec.c", "252")
	if err != nil {
		t.Fatal(err)
	}
	body := execWin.Body.String()
	off := strings.Index(body, "errs((uchar*)n)")
	q := len([]rune(body[:off+len("errs((uchar*)")]))
	execWin.SetSelection(core.SubBody, q, q)
	w.Help.SetCurrent(execWin, core.SubBody)

	cbr := w.Help.WindowByName("/help/cbr/stf")
	w.Help.Execute(cbr, "decl")
	declWin := w.Help.WindowByName(SrcDir + "/decl")
	if declWin == nil {
		t.Fatalf("no decl window; errors: %q", w.Help.Errors().Body.String())
	}
	if got := strings.TrimSpace(declWin.Body.String()); got != "dat.h:136" {
		t.Errorf("decl = %q, want dat.h:136", got)
	}
}

func TestSrcTool(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	execWin, _ := w.Help.OpenFile(SrcDir+"/exec.c", "")
	body := execWin.Body.String()
	off := strings.Index(body, "errs((uchar*)n)")
	q := len([]rune(body[:off+2]))
	execWin.SetSelection(core.SubBody, q, q) // inside "errs"
	w.Help.SetCurrent(execWin, core.SubBody)
	cbr := w.Help.WindowByName("/help/cbr/stf")
	w.Help.Execute(cbr, "src")
	srcWin := w.Help.WindowByName(SrcDir + "/src")
	if srcWin == nil {
		t.Fatalf("no src window; errors: %q", w.Help.Errors().Body.String())
	}
	if got := strings.TrimSpace(srcWin.Body.String()); got != "errs.c:28" {
		t.Errorf("src = %q, want errs.c:28 (definition of errs)", got)
	}
}

func TestMkToolCompiles(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	// Select something in exec.c so $helpsel points into the source dir,
	// then run mk from the browser tool — Figure 12.
	execWin, _ := w.Help.OpenFile(SrcDir+"/exec.c", "")
	selectWord(t, w, execWin, "lookup")
	cbr := w.Help.WindowByName("/help/cbr/stf")
	// Each run creates a fresh output window ("when windows are cheap and
	// easy to use why not just create a window for every process?"), so
	// look at the newest one named .../mk after each run.
	latestMk := func() *core.Window {
		var mk *core.Window
		for _, win := range w.Help.Windows() {
			if win.FileName() == SrcDir+"/mk" {
				mk = win
			}
		}
		return mk
	}
	// The world ships pre-built, so the first mk is up to date.
	w.Help.Execute(cbr, "mk")
	mkWin := latestMk()
	if mkWin == nil {
		t.Fatalf("no mk window; errors: %q", w.Help.Errors().Body.String())
	}
	if !strings.Contains(mkWin.Body.String(), "up to date") {
		t.Errorf("pre-built tree should be up to date:\n%s", mkWin.Body.String())
	}
	if !w.FS.Exists(SrcDir + "/v.out") {
		t.Error("link output missing")
	}
	// Touch exec.c (as the Cut+Put! of the session does) and re-run: only
	// exec.v recompiles, as Figure 12 shows.
	data, _ := w.FS.ReadFile(SrcDir + "/exec.c")
	w.FS.WriteFile(SrcDir+"/exec.c", data)
	w.Help.Execute(cbr, "mk")
	final := latestMk().Body.String()
	if !strings.Contains(final, "vc -w exec.c") {
		t.Errorf("mk did not recompile exec.c after touch:\n%s", final)
	}
	if !strings.Contains(final, "vl help.v clik.v ctrl.v dat.v errs.v exec.v") {
		t.Errorf("mk output missing link step:\n%s", final)
	}
	if strings.Contains(final, "vc -w help.c") {
		t.Errorf("mk recompiled unrelated help.c:\n%s", final)
	}
}

func TestGrepFromSourceWindow(t *testing.T) {
	// "grep '^main' /sys/src/cmd/help/*.c" flavour: external command with
	// a glob, run in the window's directory context.
	w := build(t)
	execWin, _ := w.Help.OpenFile(SrcDir+"/exec.c", "")
	w.Help.Execute(execWin, "grep -n Xdie1 *.c")
	errs := w.Help.Errors().Body.String()
	if !strings.Contains(errs, "exec.c:") {
		t.Errorf("grep output = %q", errs)
	}
	// grep matches prototypes and calls alike — the imprecision uses
	// avoids.
	if strings.Count(errs, "exec.c:") < 2 {
		t.Errorf("grep should find several occurrences: %q", errs)
	}
}

func TestMailHeadersViaToolWindow(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	mailStf := w.Help.WindowByName("/help/mail/stf")
	w.Help.Execute(mailStf, "headers")
	hw := w.Help.WindowByName(MboxPath)
	if hw == nil {
		t.Fatalf("headers window missing; errors: %q", w.Help.Errors().Body.String())
	}
	body := hw.Body.String()
	if !strings.Contains(body, "2 sean Tue Apr 16 19:26 EDT") {
		t.Errorf("headers = %q", body)
	}
	if lines := strings.Count(body, "\n"); lines != 7 {
		t.Errorf("header lines = %d, want 7", lines)
	}
}

func TestMailMessagesFromHeaderLine(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	mailStf := w.Help.WindowByName("/help/mail/stf")
	w.Help.Execute(mailStf, "headers")
	hw := w.Help.WindowByName(MboxPath)
	selectWord(t, w, hw, "sean")
	w.Help.Execute(mailStf, "messages")
	var msg *core.Window
	for _, win := range w.Help.Windows() {
		if strings.HasPrefix(win.Tag.String(), "From sean") {
			msg = win
		}
	}
	if msg == nil {
		t.Fatalf("message window missing; errors: %q", w.Help.Errors().Body.String())
	}
	if !strings.Contains(msg.Body.String(), "user TLB miss") {
		t.Errorf("message body = %q", msg.Body.String())
	}
}

func TestHelpSelProgram(t *testing.T) {
	w := build(t)
	win := w.Help.NewWindow()
	win.Body.SetString("process 176153 is broken")
	selectWord(t, w, win, "176153")
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:%d,%d", win.ID,
		win.Sel.Of(core.SubBody).Q0, win.Sel.Of(core.SubBody).Q1)})
	if status := w.Shell.RunCommand(ctx, []string{"help/sel"}); status != 0 {
		t.Fatalf("help/sel failed: %s", out.String())
	}
	if strings.TrimSpace(out.String()) != "176153" {
		t.Errorf("help/sel = %q", out.String())
	}
}

func TestHelpParseProgram(t *testing.T) {
	w := build(t)
	win, err := w.Help.OpenFile(SrcDir+"/exec.c", "")
	if err != nil {
		t.Fatal(err)
	}
	body := win.Body.String()
	off := strings.Index(body, "n = 0;")
	q := len([]rune(body[:off]))
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:%d,%d", win.ID, q, q)})
	if status := w.Shell.RunCommand(ctx, []string{"help/parse"}); status != 0 {
		t.Fatalf("help/parse failed: %s", out.String())
	}
	got := out.String()
	for _, want := range []string{"file=exec.c", "id=n", "line=213", "dir=" + SrcDir, "files=("} {
		if !strings.Contains(got, want) {
			t.Errorf("parse output missing %q: %q", want, got)
		}
	}
}

func TestProfileRuns(t *testing.T) {
	// The profile of Figure 1 runs verbatim: binds, fn, switch, fortune.
	w := build(t)
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("home", []string{"/usr/rob"})
	ctx.Set("cputype", []string{"mips"})
	ctx.Set("service", []string{"terminal"})
	data, _ := w.FS.ReadFile(Profile)
	status := w.Shell.Run(ctx, string(data))
	if status != 0 {
		t.Errorf("profile status=%d out=%q", status, out.String())
	}
	if strings.Contains(out.String(), "bind:") {
		t.Errorf("profile binds failed: %q", out.String())
	}
	if !strings.Contains(out.String(), "Simplicity") {
		t.Errorf("fortune missing: %q", out.String())
	}
	// The terminal arm ran: the prompt variable is set.
	if ctx.Getenv("site") != "plan9" {
		t.Errorf("switch arm did not run; site=%q", ctx.Getenv("site"))
	}
	// And the namespace composition is visible: $home/tmp now backs /tmp.
	w.FS.WriteFile("/tmp/scratch", []byte("x"))
	if !w.FS.Exists("/usr/rob/tmp/scratch") {
		t.Error("bind -e $home/tmp /tmp not effective")
	}
}

// TestBrowseSweep runs the browser over every file-scope symbol in the
// tree: every global and defined function must be declared inside the
// tree and queryable through the uses pipeline.
func TestBrowseSweep(t *testing.T) {
	w := build(t)
	var files []string
	ents, _ := w.FS.ReadDir(SrcDir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name, ".c") || strings.HasSuffix(e.Name, ".h") {
			files = append(files, e.Name)
		}
	}
	b := cc.NewBrowser()
	for _, f := range files {
		if strings.HasSuffix(f, ".h") {
			data, _ := w.FS.ReadFile(SrcDir + "/" + f)
			if err := b.ParseFile(f, string(data)); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
	}
	for _, f := range files {
		if strings.HasSuffix(f, ".c") {
			data, _ := w.FS.ReadFile(SrcDir + "/" + f)
			if err := b.ParseFile(f, string(data)); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
	}
	globals := b.Globals()
	if len(globals) < 5 {
		t.Fatalf("globals = %d, tree too thin", len(globals))
	}
	for _, g := range globals {
		if g.Decl.IsZero() {
			t.Errorf("global %s has no declaration", g.Name)
		}
		if len(b.Uses(g, nil)) == 0 {
			t.Errorf("global %s has no references", g.Name)
		}
	}
	fns := b.Functions()
	if len(fns) < 10 {
		t.Errorf("defined functions = %d, expected the whole tree", len(fns))
	}
	for _, f := range fns {
		if !strings.HasSuffix(f.Decl.File, ".c") {
			t.Errorf("function %s defined in %s", f.Name, f.Decl.File)
		}
	}
}

// TestOpenEverySourceFile opens all sixteen tree files through the UI
// path and verifies window naming, directory context, and tag commands.
func TestOpenEverySourceFile(t *testing.T) {
	w := build(t)
	ents, _ := w.FS.ReadDir(SrcDir)
	opened := 0
	for _, e := range ents {
		if e.IsDir {
			continue
		}
		win, err := w.Help.OpenFile(SrcDir+"/"+e.Name, "")
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		opened++
		if win.Dir() != SrcDir {
			t.Errorf("%s: dir = %q", e.Name, win.Dir())
		}
		if !strings.Contains(win.Tag.String(), "Close!") {
			t.Errorf("%s: tag = %q", e.Name, win.Tag.String())
		}
	}
	if opened < 15 {
		t.Errorf("opened only %d files", opened)
	}
	// All windows coexist; every one is either visible or tabbed.
	for _, win := range w.Help.Windows() {
		if span := w.Help.VisibleSpan(win); span < 0 {
			t.Errorf("window %d span %d", win.ID, span)
		}
	}
}

// TestGoDeclClosesTheLoop exercises the paper's planned improvement to
// the browser: godecl finds the declaration and opens it directly, so
// with a single command the declaration's file appears positioned at the
// right line.
func TestGoDeclClosesTheLoop(t *testing.T) {
	w := build(t)
	if err := w.Boot(); err != nil {
		t.Fatal(err)
	}
	execWin, err := w.Help.OpenFile(SrcDir+"/exec.c", "252")
	if err != nil {
		t.Fatal(err)
	}
	body := execWin.Body.String()
	off := strings.Index(body, "errs((uchar*)n)")
	q := len([]rune(body[:off+len("errs((uchar*)")]))
	execWin.SetSelection(core.SubBody, q, q)
	w.Help.SetCurrent(execWin, core.SubBody)

	cbr := w.Help.WindowByName("/help/cbr/stf")
	w.Help.Execute(cbr, "godecl")

	datWin := w.Help.WindowByName(SrcDir + "/dat.h")
	if datWin == nil {
		t.Fatalf("declaration window not opened; errors: %q", w.Help.Errors().Body.String())
	}
	if ln := datWin.Body.LineAt(datWin.Sel.Of(core.SubBody).Q0); ln != 136 {
		t.Errorf("declaration selected at line %d, want 136", ln)
	}
	if got := datWin.SelectedText(core.SubBody); got != "uchar *n;" {
		t.Errorf("selected %q", got)
	}
}

func TestHelpBufProgram(t *testing.T) {
	w := build(t)
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	if status := w.Shell.Run(ctx, "echo piped through | help/buf"); status != 0 {
		t.Fatalf("help/buf: %s", out.String())
	}
	if out.String() != "piped through\n" {
		t.Errorf("out = %q", out.String())
	}
}

func TestHelpSelNonNullSelection(t *testing.T) {
	// A non-null selection prints literally — "the resulting text is then
	// exactly what is selected".
	w := build(t)
	win := w.Help.NewWindow()
	win.Body.SetString("take THIS PART exactly")
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:5,14", win.ID)})
	if status := w.Shell.RunCommand(ctx, []string{"help/sel"}); status != 0 {
		t.Fatalf("help/sel: %s", out.String())
	}
	if strings.TrimSpace(out.String()) != "THIS PART" {
		t.Errorf("out = %q", out.String())
	}
}

func TestHelpSelEmpty(t *testing.T) {
	w := build(t)
	win := w.Help.NewWindow()
	win.Body.SetString("   ")
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:1,1", win.ID)})
	if status := w.Shell.RunCommand(ctx, []string{"help/sel"}); status == 0 {
		t.Error("empty expansion should fail")
	}
}

func TestHelpParseDirectoryWindow(t *testing.T) {
	// Parsing a selection in a directory window: dir is the directory
	// itself, file is empty.
	w := build(t)
	win, err := w.Help.OpenFile(SrcDir, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:0,0", win.ID)})
	if status := w.Shell.RunCommand(ctx, []string{"help/parse"}); status != 0 {
		t.Fatalf("help/parse: %s", out.String())
	}
	got := out.String()
	if !strings.Contains(got, "dir="+SrcDir) {
		t.Errorf("dir missing: %q", got)
	}
	if !strings.Contains(got, "file= ") && !strings.Contains(got, "file=\t") && !strings.Contains(got, "file= id") {
		// file is empty for a directory window.
		if strings.Contains(got, "file=.") {
			t.Errorf("directory window should have empty file: %q", got)
		}
	}
}

func TestHelpParseNoTagName(t *testing.T) {
	// A window with no file name contexts at /.
	w := build(t)
	win := w.Help.NewWindow()
	win.Body.SetString("bare window body")
	var out bytes.Buffer
	ctx := w.Shell.NewContext(&out, &out)
	ctx.Set("helpsel", []string{fmt.Sprintf("%d:0,0", win.ID)})
	if status := w.Shell.RunCommand(ctx, []string{"help/parse"}); status != 0 {
		t.Fatalf("help/parse: %s", out.String())
	}
	if !strings.Contains(out.String(), "dir=/") {
		t.Errorf("out = %q", out.String())
	}
}

func TestPaperGrepCommand(t *testing.T) {
	// The paper's exact external-command example: "if one selects with
	// the middle button the text grep '^main' /sys/src/cmd/help/*.c the
	// traditional command will be executed" (adapted to the tree's real
	// location).
	w := build(t)
	win, _ := w.Help.OpenFile(SrcDir+"/help.c", "")
	w.Help.Execute(win, "grep -n '^main' *.c")
	errs := w.Help.Errors().Body.String()
	if !strings.Contains(errs, "help.c:29:main(int argc, char *argv[])") {
		t.Errorf("grep output = %q", errs)
	}
	// The anchored pattern must not match call sites or comments.
	if strings.Contains(errs, "ctrl.c") {
		t.Errorf("anchored grep matched too much: %q", errs)
	}
}
