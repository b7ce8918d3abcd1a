package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/vfs"
	"repro/internal/world"
)

// TestInvalidUTF8BodyWritesJournal writes invalid UTF-8 through a
// window's body and bodyapp files with a journal attached. Each journaled
// insert must be string(<the runes the buffer inserted>) — each invalid
// byte a U+FFFD, as the buffer holds it, not the raw bytes written — and
// recovering the journal must reproduce the buffer.
func TestInvalidUTF8BodyWritesJournal(t *testing.T) {
	w, err := world.Build(120, 60)
	if err != nil {
		t.Fatal(err)
	}
	mfs := journal.NewMemFS()
	jw, err := journal.Open(mfs, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	w.Help.AttachJournal(jw, 1<<20)
	win := w.Help.NewWindow()
	dir := fmt.Sprintf("%s/%d", world.MountRoot, win.ID)

	// The body write ends with the first two bytes of "€" and the
	// append starts with its last: written apart, they stay three
	// U+FFFD runes.
	writes := []struct{ file, data string }{
		{"body", "ok \xff line\n\xe2\x82"},
		{"bodyapp", "\xac tail \xc3(\n"},
		{"bodyapp", "valid αβ\n"},
	}
	var want []string
	for _, wr := range writes {
		if wr.file == "body" {
			if err := w.FS.WriteFile(dir+"/body", []byte(wr.data)); err != nil {
				t.Fatal(err)
			}
		} else {
			f, err := w.FS.Open(dir+"/bodyapp", vfs.OWRITE)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte(wr.data)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, string([]rune(wr.data)))
	}
	body := win.Body.String()
	if joined := want[0] + want[1] + want[2]; body != joined {
		t.Fatalf("body = %q, want %q", body, joined)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	st, err := journal.Load(mfs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range st.Ops {
		if op.Kind == journal.OpSplice && op.Win == win.ID && op.Sub == core.SubBody && op.Str1 != "" {
			got = append(got, op.Str1)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("journaled inserts = %q, want %q", got, want)
	}

	w2, err := world.Build(120, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RecoverSession(w2.Help, mfs); err != nil {
		t.Fatal(err)
	}
	rw := w2.Help.Window(win.ID)
	if rw == nil {
		t.Fatalf("window %d not recovered", win.ID)
	}
	if got := rw.Body.String(); got != body {
		t.Fatalf("recovered body = %q, want %q", got, body)
	}
}
