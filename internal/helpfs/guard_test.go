package helpfs

import (
	"strings"
	"testing"

	"repro/internal/vfs"
)

// panicDevice blows up at a chosen stage of its life cycle.
type panicDevice struct {
	onOpen  bool
	onRead  bool
	onWrite bool
	onClose bool
	onGen   bool
}

func (d panicDevice) Gen() uint64 {
	if d.onGen {
		panic("device gen bug")
	}
	return 0
}

func (d panicDevice) OpenDevice(mode int) (vfs.DeviceFile, error) {
	if d.onOpen {
		panic("device open bug")
	}
	return panicFile{d: d}, nil
}

type panicFile struct{ d panicDevice }

func (f panicFile) ReadAt(p []byte, off int64) (int, error) {
	if f.d.onRead {
		panic("device read bug")
	}
	return 0, nil
}

func (f panicFile) WriteAt(p []byte, off int64) (int, error) {
	if f.d.onWrite {
		panic("device write bug")
	}
	return len(p), nil
}

func (f panicFile) Close() error {
	if f.d.onClose {
		panic("device close bug")
	}
	return nil
}

// Every stage of a buggy device — open, read, write, close — must come
// back to the client as an error, never a crash, and a stat whose
// generation panics reports no generation. Each recovery is counted and
// reported in the Errors window.
func TestGuardConvertsPanics(t *testing.T) {
	h, fs, s := attach(t)

	register := func(name string, d vfs.Device) {
		t.Helper()
		if err := s.register("/mnt/help/"+name, d); err != nil {
			t.Fatal(err)
		}
	}
	register("boom-open", panicDevice{onOpen: true})
	register("boom-read", panicDevice{onRead: true})
	register("boom-write", panicDevice{onWrite: true})
	register("boom-close", panicDevice{onClose: true})
	register("boom-gen", panicDevice{onGen: true})

	if _, err := fs.Open("/mnt/help/boom-open", vfs.OREAD); err == nil {
		t.Fatal("open panic not converted to an error")
	}

	f, err := fs.Open("/mnt/help/boom-read", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 8)); err == nil {
		t.Fatal("read panic not converted to an error")
	}
	f.Close()

	f, err = fs.Open("/mnt/help/boom-write", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write panic not converted to an error")
	}
	f.Close()

	f, err = fs.Open("/mnt/help/boom-close", vfs.OREAD)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("close panic not converted to an error")
	}

	info, err := fs.Stat("/mnt/help/boom-gen")
	if err != nil {
		t.Fatalf("gen panic failed the stat: %v", err)
	}
	if info.Gen != 0 {
		t.Fatalf("gen after a panic = %d, want 0", info.Gen)
	}

	if n := h.PanicCount(); n != 5 {
		t.Fatalf("PanicCount = %d, want 5", n)
	}
	errs := h.Errors().Body.String()
	for _, msg := range []string{"device open bug", "device read bug", "device write bug", "device close bug", "device gen bug"} {
		if !strings.Contains(errs, msg) {
			t.Fatalf("Errors window missing %q:\n%s", msg, errs)
		}
	}

	// The session survived: the service still works end to end.
	w := h.NewWindow()
	w.Body.SetString("still alive")
	data, err := fs.ReadFile(s.winDir(w.ID) + "/body")
	if err != nil || string(data) != "still alive" {
		t.Fatalf("service dead after recovered panics: %q, %v", data, err)
	}
}

// The real devices are all registered behind the guard; a panic deep in
// a ctl handler (forced here by closing the window out from under an
// open handle, then using an unknown message path that trips the
// normal error) must never escape through the vfs boundary. This is a
// smoke test that the wrapping is actually installed.
func TestRealDevicesAreGuarded(t *testing.T) {
	_, fs, _ := attach(t)
	f, err := fs.Open("/mnt/help/new/ctl", vfs.ORDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("select not-numbers\n")); err == nil {
		t.Fatal("bad ctl message accepted")
	}
}
