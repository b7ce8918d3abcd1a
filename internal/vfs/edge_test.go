package vfs

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Edge and error paths not covered by the main suite.

func TestFileName(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", nil)
	f, _ := fs.Open("/d/../d/f", OREAD)
	if f.Name() != "/d/f" {
		t.Errorf("Name = %q", f.Name())
	}
	f.Close()
}

func TestNowAndTickMonotone(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	t0 := fs.Now()
	fs.WriteFile("/d/a", []byte("1"))
	t1 := fs.Now()
	fs.WriteFile("/d/b", []byte("2"))
	t2 := fs.Now()
	if !(t0 < t1 && t1 < t2) {
		t.Errorf("clock not monotone: %d %d %d", t0, t1, t2)
	}
	a, _ := fs.Stat("/d/a")
	b, _ := fs.Stat("/d/b")
	if a.ModTime >= b.ModTime {
		t.Errorf("mtimes not ordered: %d %d", a.ModTime, b.ModTime)
	}
}

func TestAppendFileErrors(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	if err := fs.AppendFile("/d", []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Errorf("append to dir: %v", err)
	}
	if err := fs.AppendFile("/no/dir/f", []byte("x")); !errors.Is(err, ErrNotExist) {
		t.Errorf("append into missing dir: %v", err)
	}
}

func TestRemoveDevice(t *testing.T) {
	fs := New()
	dev := &testDevice{reply: "x"}
	fs.RegisterDevice("/dev/thing", dev)
	if !fs.Exists("/dev/thing") {
		t.Fatal("device missing")
	}
	fs.RemoveDevice("/dev/thing")
	if fs.Exists("/dev/thing") {
		t.Error("device survives removal")
	}
	// Removing again is harmless.
	fs.RemoveDevice("/dev/thing")
}

func TestDeviceAppendFile(t *testing.T) {
	fs := New()
	dev := &testDevice{}
	fs.RegisterDevice("/dev/sink", dev)
	if err := fs.AppendFile("/dev/sink", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if string(dev.last) != "data" {
		t.Errorf("device got %q", dev.last)
	}
}

func TestReadDirOnFile(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", nil)
	if _, err := fs.ReadDir("/d/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("err = %v", err)
	}
	if _, err := fs.ReadDir("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v", err)
	}
}

func TestWalkThroughFile(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", nil)
	if _, err := fs.ReadFile("/d/f/deeper"); err == nil {
		t.Error("walking through a file should fail")
	}
}

func TestBindChains(t *testing.T) {
	// A bind whose source is itself under a bind resolves transitively.
	fs := New()
	fs.MkdirAll("/real/data")
	fs.WriteFile("/real/data/f", []byte("deep"))
	fs.MkdirAll("/m1")
	fs.MkdirAll("/m2")
	fs.Bind("/real", "/m1", Replace)
	fs.Bind("/m1/data", "/m2", Replace)
	got, err := fs.ReadFile("/m2/f")
	if err != nil || string(got) != "deep" {
		t.Errorf("chained bind read = %q err=%v", got, err)
	}
}

func TestBindBadFlag(t *testing.T) {
	fs := New()
	fs.MkdirAll("/a")
	if err := fs.Bind("/a", "/b", BindFlag(42)); err == nil {
		t.Error("bad flag should error")
	}
}

func TestReadPartialDevice(t *testing.T) {
	fs := New()
	fs.RegisterDevice("/dev/text", &testDevice{reply: "0123456789"})
	f, err := fs.Open("/dev/text", OREAD)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	n, _ := f.Read(buf)
	if n != 4 || string(buf[:n]) != "0123" {
		t.Errorf("read = %d %q", n, buf[:n])
	}
	// Sequential offset advances per handle.
	n, _ = f.Read(buf)
	if string(buf[:n]) != "4567" {
		t.Errorf("read2 = %q", buf[:n])
	}
}

func TestGlobQuestionAndClass(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	for _, n := range []string{"a1", "a2", "b1"} {
		fs.WriteFile("/d/"+n, nil)
	}
	if got := fs.Glob("/d/a?"); len(got) != 2 {
		t.Errorf("a? = %v", got)
	}
	if got := fs.Glob("/d/[ab]1"); len(got) != 2 {
		t.Errorf("[ab]1 = %v", got)
	}
}

func TestSeekThenReadEOF(t *testing.T) {
	fs := New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("abc"))
	f, _ := fs.Open("/d/f", OREAD)
	f.Seek(0, io.SeekEnd)
	if _, err := f.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("err = %v", err)
	}
}

func TestStatMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v", err)
	}
}

func TestUnionCreateGoesToFirstMember(t *testing.T) {
	fs := New()
	fs.MkdirAll("/over")
	fs.MkdirAll("/bin")
	fs.Bind("/over", "/bin", Before)
	fs.WriteFile("/bin/newtool", []byte("x"))
	if !fs.Exists("/over/newtool") {
		t.Error("create did not go to the first union member")
	}
}

// TestModelBasedRandomOps runs thousands of random operations against the
// FS and a flat map model in lockstep; contents and existence must agree
// at every step.
func TestModelBasedRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fs := New()
	model := map[string][]byte{} // file path -> contents
	dirs := map[string]bool{"/": true}

	paths := []string{"/a", "/b", "/a/x", "/a/y", "/b/z", "/a/x/deep"}
	files := []string{"f1", "f2", "note.c"}
	randDir := func() string { return paths[rng.Intn(len(paths))] }
	randFile := func() string { return randDir() + "/" + files[rng.Intn(len(files))] }

	for i := 0; i < 5000; i++ {
		switch rng.Intn(6) {
		case 0: // mkdir
			d := randDir()
			if err := fs.MkdirAll(d); err != nil {
				t.Fatalf("mkdir %s: %v", d, err)
			}
			for p := d; p != "/"; p = parentPath(p) {
				dirs[p] = true
			}
		case 1: // write
			f := randFile()
			data := []byte(strings.Repeat("x", rng.Intn(20)))
			err := fs.WriteFile(f, data)
			if dirs[parentPath(f)] {
				if err != nil {
					t.Fatalf("write %s: %v", f, err)
				}
				model[f] = data
			} else if err == nil {
				t.Fatalf("write %s into missing dir succeeded", f)
			}
		case 2: // append
			f := randFile()
			err := fs.AppendFile(f, []byte("+"))
			if dirs[parentPath(f)] {
				if err != nil {
					t.Fatalf("append %s: %v", f, err)
				}
				model[f] = append(model[f], '+')
			} else if err == nil {
				t.Fatalf("append %s into missing dir succeeded", f)
			}
		case 3: // read
			f := randFile()
			data, err := fs.ReadFile(f)
			want, ok := model[f]
			if ok != (err == nil) {
				t.Fatalf("read %s: exist mismatch (model %v, err %v)", f, ok, err)
			}
			if ok && string(data) != string(want) {
				t.Fatalf("read %s: %q != %q", f, data, want)
			}
		case 4: // remove file
			f := randFile()
			err := fs.Remove(f)
			if _, ok := model[f]; ok {
				if err != nil {
					t.Fatalf("remove %s: %v", f, err)
				}
				delete(model, f)
			} else if err == nil && !dirs[f] {
				t.Fatalf("remove of missing %s succeeded", f)
			}
		case 5: // exists cross-check
			f := randFile()
			_, ok := model[f]
			if fs.Exists(f) != (ok || dirs[f]) {
				t.Fatalf("exists %s mismatch", f)
			}
		}
	}
	// Final: every model file is present with identical contents.
	for f, want := range model {
		got, err := fs.ReadFile(f)
		if err != nil || string(got) != string(want) {
			t.Fatalf("final %s: %q/%v vs %q", f, got, err, want)
		}
	}
}

func parentPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// panicWaitDev is a device whose blocking read panics.
type panicWaitDev struct {
	testDevice
}

func (*panicWaitDev) ReadWait(uint64, <-chan struct{}, time.Duration) ([]byte, uint64, error) {
	panic("boom")
}

// TestReadWaitPanicCounted: a panicking WaitDevice becomes an error on
// the call, counts as vfs.panics, leaves a vfs.panic event naming the
// path and the panic value, and the namespace keeps serving.
func TestReadWaitPanicCounted(t *testing.T) {
	fs := New()
	reg := obs.New()
	fs.SetObs(reg)
	if err := fs.RegisterDevice("/dev/log", &panicWaitDev{testDevice{reply: "y"}}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		_, _, err := fs.ReadWait("/dev/log", 0, nil, time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "internal error: boom") {
			t.Fatalf("ReadWait err = %v, want the recovered panic", err)
		}
		if n := reg.Counter("vfs.panics").Load(); n != i {
			t.Fatalf("vfs.panics = %d, want %d", n, i)
		}
	}
	found := false
	for _, sp := range reg.Spans() {
		if sp.Name == "vfs.panic" && strings.Contains(sp.Attrs, "/dev/log") && strings.Contains(sp.Attrs, "boom") {
			found = true
		}
	}
	if !found {
		t.Errorf("no vfs.panic event naming the path and value in %+v", reg.Spans())
	}
	if data, err := fs.ReadFile("/dev/log"); err != nil || string(data) != "y" {
		t.Fatalf("device read after panic = %q err=%v", data, err)
	}
	if err := fs.WriteFile("/f", []byte("still serving")); err != nil {
		t.Fatal(err)
	}
	if data, err := fs.ReadFile("/f"); err != nil || string(data) != "still serving" {
		t.Fatalf("read after panic = %q err=%v", data, err)
	}
}
