package helpfs

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shell"
	"repro/internal/userland"
	"repro/internal/vfs"
)

// attach builds a help instance with the file service mounted at
// /mnt/help and the userland installed.
func attach(t *testing.T) (*core.Help, *vfs.FS, *Service) {
	t.Helper()
	fs := vfs.New()
	fs.MkdirAll("/bin")
	fs.MkdirAll("/tmp")
	fs.WriteFile("/tmp/notes", []byte("some file contents\n"))
	sh := shell.New(fs)
	userland.Install(sh)
	h := core.New(fs, sh, 80, 24)
	svc, err := Attach(h, fs, "/mnt/help")
	if err != nil {
		t.Fatal(err)
	}
	return h, fs, svc
}

func TestNewCtlCreatesWindow(t *testing.T) {
	h, fs, _ := attach(t)
	f, err := fs.Open("/mnt/help/new/ctl", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	f.Close()
	id := strings.TrimSpace(string(buf[:n]))
	if id != "1" {
		t.Errorf("new window id = %q", id)
	}
	if len(h.Windows()) != 1 {
		t.Errorf("windows = %d", len(h.Windows()))
	}
}

func TestBodyReadWrite(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString("hello from help")
	data, err := fs.ReadFile("/mnt/help/1/body")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello from help" {
		t.Errorf("body read = %q", data)
	}
	// Writing replaces.
	if err := fs.WriteFile("/mnt/help/1/body", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if w.Body.String() != "replaced" {
		t.Errorf("body after write = %q", w.Body.String())
	}
}

func TestBodyappAppends(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString("start\n")
	f, err := fs.Open("/mnt/help/1/bodyapp", vfs.OWRITE)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("appended 1\n"))
	f.Write([]byte("appended 2\n"))
	f.Close()
	if w.Body.String() != "start\nappended 1\nappended 2\n" {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestTagReadWrite(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Tag.SetString("/some/file\tClose!")
	data, _ := fs.ReadFile("/mnt/help/1/tag")
	if string(data) != "/some/file\tClose!" {
		t.Errorf("tag = %q", data)
	}
	fs.WriteFile("/mnt/help/1/tag", []byte("/other\tClose!"))
	if w.Tag.String() != "/other\tClose!" {
		t.Errorf("tag after write = %q", w.Tag.String())
	}
}

func TestIndexFormat(t *testing.T) {
	h, fs, _ := attach(t)
	a := h.NewWindow()
	a.Tag.SetString("/a/file\tClose!")
	b := h.NewWindow()
	b.Tag.SetString("Errors\tClose!")
	data, err := fs.ReadFile("/mnt/help/index")
	if err != nil {
		t.Fatal(err)
	}
	want := "1\t/a/file\tClose!\n2\tErrors\tClose!\n"
	if string(data) != want {
		t.Errorf("index = %q, want %q", data, want)
	}
}

func TestCtlMessages(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString("one\ntwo\nthree\n")

	write := func(msg string) error {
		return fs.WriteFile("/mnt/help/1/ctl", []byte(msg))
	}
	if err := write("name /tmp/notes\n"); err != nil {
		t.Fatal(err)
	}
	if w.FileName() != "/tmp/notes" {
		t.Errorf("name = %q", w.FileName())
	}
	if err := write("show 2\n"); err != nil {
		t.Fatal(err)
	}
	if got := w.SelectedText(core.SubBody); got != "two" {
		t.Errorf("after show: selected %q", got)
	}
	if err := write("select 0 3\n"); err != nil {
		t.Fatal(err)
	}
	if got := w.SelectedText(core.SubBody); got != "one" {
		t.Errorf("after select: %q", got)
	}
	if err := write("dirty\n"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.Tag.String(), "Put!") {
		t.Errorf("dirty tag = %q", w.Tag.String())
	}
	if err := write("clean\n"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(w.Tag.String(), "Put!") {
		t.Errorf("clean tag = %q", w.Tag.String())
	}
	if err := write("tag raw tag text\n"); err != nil {
		t.Fatal(err)
	}
	if w.Tag.String() != "raw tag text" {
		t.Errorf("tag = %q", w.Tag.String())
	}
	if err := write("bogus\n"); err == nil {
		t.Error("unknown ctl message should fail")
	}
	if err := write("delete\n"); err != nil {
		t.Fatal(err)
	}
	if len(h.Windows()) != 0 {
		t.Error("delete did not close the window")
	}
}

func TestWindowFilesRemovedOnClose(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	if !fs.Exists("/mnt/help/1/body") {
		t.Fatal("window files missing")
	}
	h.CloseWindow(w)
	if fs.Exists("/mnt/help/1/body") {
		t.Error("window files survive close")
	}
	if _, err := fs.ReadFile("/mnt/help/1/body"); err == nil {
		t.Error("stale body file readable")
	}
}

func TestShellScriptDrivesUI(t *testing.T) {
	// The paper's core demonstration: a shell script, with no UI code,
	// creates a window, names it, and fills it through the file system.
	h, _, _ := attach(t)
	sh := h.Shell
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	script := `
x=` + "`" + `{cat /mnt/help/new/ctl}
echo name /results > /mnt/help/$x/ctl
{
echo result line 1
echo result line 2
} > /mnt/help/$x/bodyapp
`
	if status := sh.Run(ctx, script); status != 0 {
		t.Fatalf("script failed: %s", out.String())
	}
	if len(h.Windows()) != 1 {
		t.Fatalf("windows = %d", len(h.Windows()))
	}
	w := h.Windows()[0]
	if w.FileName() != "/results" {
		t.Errorf("name = %q", w.FileName())
	}
	if w.Body.String() != "result line 1\nresult line 2\n" {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestCpBodyToFile(t *testing.T) {
	// "to copy the text in the body of window number 7 to a file, one may
	// execute: cp /mnt/help/7/body file"
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString("window text\n")
	sh := h.Shell
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	if status := sh.Run(ctx, "cp /mnt/help/1/body /tmp/saved"); status != 0 {
		t.Fatalf("cp failed: %s", out.String())
	}
	data, _ := fs.ReadFile("/tmp/saved")
	if string(data) != "window text\n" {
		t.Errorf("saved = %q", data)
	}
}

func TestGrepBody(t *testing.T) {
	// "To search for a text pattern: grep pattern /mnt/help/7/body"
	h, _, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString("alpha\nneedle here\nomega\n")
	sh := h.Shell
	var out bytes.Buffer
	ctx := sh.NewContext(&out, &out)
	if status := sh.Run(ctx, "grep needle /mnt/help/1/body"); status != 0 {
		t.Fatalf("grep failed: %s", out.String())
	}
	if out.String() != "needle here\n" {
		t.Errorf("grep out = %q", out.String())
	}
}

func TestReadOnlyIndex(t *testing.T) {
	_, fs, _ := attach(t)
	if err := fs.WriteFile("/mnt/help/index", []byte("x")); err == nil {
		t.Error("index should be read-only")
	}
}

func TestMultipleServicesIndependentRoots(t *testing.T) {
	h, fs, _ := attach(t)
	// Attach a second service at another root; both see the same windows.
	if _, err := Attach(h, fs, "/n/help"); err != nil {
		t.Fatal(err)
	}
	w := h.NewWindow()
	w.Body.SetString("shared")
	d1, _ := fs.ReadFile("/mnt/help/1/body")
	d2, _ := fs.ReadFile("/n/help/1/body")
	if string(d1) != "shared" || string(d2) != "shared" {
		t.Errorf("roots disagree: %q vs %q", d1, d2)
	}
}

func TestCtlReadReportsID(t *testing.T) {
	h, fs, _ := attach(t)
	h.NewWindow()
	data, err := fs.ReadFile("/mnt/help/1/ctl")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "1" {
		t.Errorf("ctl read = %q", data)
	}
}

// TestCtlShortReads reads new/ctl and N/ctl one byte at a time: a reader
// whose buffer is shorter than the reply must still get every byte, the
// same bytes ReadFile returns.
func TestCtlShortReads(t *testing.T) {
	h, fs, _ := attach(t)
	for i := 0; i < 12; i++ {
		h.NewWindow()
	}
	bytewise := func(name string) string {
		t.Helper()
		f, err := fs.Open(name, vfs.OREAD)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var out []byte
		b := make([]byte, 1)
		for len(out) < 64 {
			n, err := f.Read(b)
			out = append(out, b[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return string(out)
	}
	for _, c := range []struct{ read, want string }{
		{"/mnt/help/new/ctl", "/mnt/help/13/ctl"}, // opening new/ctl makes window 13
		{"/mnt/help/3/ctl", "/mnt/help/3/ctl"},
	} {
		got := bytewise(c.read)
		want, err := fs.ReadFile(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) || !strings.HasSuffix(got, "\n") {
			t.Errorf("%s read a byte at a time = %q, ReadFile(%s) = %q", c.read, got, c.want, want)
		}
	}
}

func TestBodyWriteClampsSelection(t *testing.T) {
	h, fs, _ := attach(t)
	w := h.NewWindow()
	w.Body.SetString(strings.Repeat("long content\n", 20))
	w.SetSelection(core.SubBody, 100, 120)
	// A tool replaces the body with something much shorter.
	if err := fs.WriteFile("/mnt/help/1/body", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	sel := w.Sel.Of(core.SubBody)
	if sel.Q1 > w.Body.Len() {
		t.Errorf("stale selection %+v after body shrank to %d", sel, w.Body.Len())
	}
}

func TestServiceRoot(t *testing.T) {
	_, _, svc := attach(t)
	if svc.Root() != "/mnt/help" {
		t.Errorf("Root = %q", svc.Root())
	}
}

func TestNewCtlWriteForwardsMessages(t *testing.T) {
	h, fs, _ := attach(t)
	// A single open of new/ctl can both name the window and read its id.
	f, err := fs.Open("/mnt/help/new/ctl", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("name /via/newctl\n")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if h.WindowByName("/via/newctl") == nil {
		t.Error("write through new/ctl did not configure the window")
	}
}

func TestBodyDeviceReadOnlyWrite(t *testing.T) {
	h, fs, _ := attach(t)
	h.NewWindow()
	f, err := fs.Open("/mnt/help/1/body", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Error("write on read-only body handle should fail")
	}
}

func TestCtlSelectBadArgs(t *testing.T) {
	h, fs, _ := attach(t)
	h.NewWindow()
	if err := fs.WriteFile("/mnt/help/1/ctl", []byte("select notanumber\n")); err == nil {
		t.Error("bad select should fail")
	}
	if err := fs.WriteFile("/mnt/help/1/ctl", []byte("show /missing-pattern/\n")); err == nil {
		t.Error("show with missing pattern should fail")
	}
}

func TestIndexLargeRead(t *testing.T) {
	h, fs, _ := attach(t)
	for i := 0; i < 50; i++ {
		w := h.NewWindow()
		w.Tag.SetString(strings.Repeat("x", 100))
	}
	data, err := fs.ReadFile("/mnt/help/index")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 50 {
		t.Errorf("index lines = %d", strings.Count(string(data), "\n"))
	}
}

// TestWindowChurn creates and deletes many windows through the file
// interface; ids never clash and the index always matches the live set.
func TestWindowChurn(t *testing.T) {
	h, fs, _ := attach(t)
	seen := map[string]bool{}
	var live []string
	for i := 0; i < 200; i++ {
		f, err := fs.Open("/mnt/help/new/ctl", vfs.OREAD)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		n, _ := f.Read(buf)
		f.Close()
		id := strings.TrimSpace(string(buf[:n]))
		if seen[id] {
			t.Fatalf("window id %s reused", id)
		}
		seen[id] = true
		live = append(live, id)
		// Delete every other window as we go.
		if i%2 == 1 {
			victim := live[0]
			live = live[1:]
			if err := fs.WriteFile("/mnt/help/"+victim+"/ctl", []byte("delete\n")); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx, err := fs.ReadFile("/mnt/help/index")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(idx), "\n")
	if lines != len(live) || lines != len(h.Windows()) {
		t.Errorf("index=%d live=%d windows=%d", lines, len(live), len(h.Windows()))
	}
	// Every live window's files are reachable; every deleted one's gone.
	for _, id := range live {
		if !fs.Exists("/mnt/help/" + id + "/body") {
			t.Errorf("live window %s missing files", id)
		}
	}
}

func TestRootCtlOpen(t *testing.T) {
	h, fs, _ := attach(t)
	fs.WriteFile("/tmp/afile", []byte("one\ntwo\nthree\n"))
	if err := fs.WriteFile("/mnt/help/ctl", []byte("open /tmp/afile:2\n")); err != nil {
		t.Fatal(err)
	}
	w := h.WindowByName("/tmp/afile")
	if w == nil {
		t.Fatal("root ctl open did not create a window")
	}
	if got := w.SelectedText(core.SubBody); got != "two" {
		t.Errorf("selected %q", got)
	}
	if err := fs.WriteFile("/mnt/help/ctl", []byte("bogus msg\n")); err == nil {
		t.Error("unknown root ctl message should fail")
	}
	if err := fs.WriteFile("/mnt/help/ctl", []byte("open /ghost\n")); err == nil {
		t.Error("open of missing file should fail")
	}
}

// Window buffers carry edit generations through the namespace: a body
// edit must move the generation that Stat reports, since core's reload
// check and srvnet's readahead slot validate against it.
func TestBodyGenMovesOnEdit(t *testing.T) {
	_, fs, _ := attach(t)
	f, err := fs.Open("/mnt/help/new/ctl", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	f.Close()
	id := strings.TrimSpace(string(buf[:n]))
	body := "/mnt/help/" + id + "/body"

	info, err := fs.Stat(body)
	if err != nil {
		t.Fatal(err)
	}
	// Even a pristine buffer has a nonzero generation (offset by one),
	// so "no generation" (0) stays distinguishable.
	if info.Gen == 0 {
		t.Fatal("body has no generation")
	}
	g1 := info.Gen
	if err := fs.WriteFile(body, []byte("edited")); err != nil {
		t.Fatal(err)
	}
	info, err = fs.Stat(body)
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen == g1 {
		t.Fatalf("body edit did not move the generation (still %d)", g1)
	}
}
