package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/notify"
	"repro/internal/text"
)

// One edit in a crowded session dirties one window, and the drain that
// follows visits that window alone; a quiescent drain visits none.
func TestDrainVisitsOnlyDirtyWindows(t *testing.T) {
	h, _ := world(t)
	_, jw := attachMemJournal(t, h, 1<<20)
	defer jw.Close()
	const n = 5000
	wins := make([]*Window, n)
	for i := range wins {
		wins[i] = h.NewWindow()
	}
	h.JournalSweep()
	if len(h.dirty) != 0 {
		t.Fatalf("%d windows dirty after a drain", len(h.dirty))
	}

	w := wins[n/2]
	w.Body.Insert(0, "x")
	if len(h.dirty) != 1 || h.dirty[0] != w {
		t.Fatalf("one body write left %d windows dirty, want only window %d", len(h.dirty), w.ID)
	}
	sub := h.Notify.Subscribe(0, 16, h.Notify.Seq())
	defer sub.Close()
	h.JournalSweep()
	if ev, ok := sub.TryNext(); !ok || ev.Window != w.ID || ev.Kind != "body" {
		t.Fatalf("drain published %+v (ok=%v), want a body event for window %d", ev, ok, w.ID)
	}
	if ev, ok := sub.TryNext(); ok {
		t.Fatalf("drain published a second event %+v", ev)
	}
	if err := AuditShadows(h); err != nil {
		t.Fatal(err)
	}

	if len(h.dirty) != 0 {
		t.Fatalf("%d windows dirty before a quiescent drain", len(h.dirty))
	}
	h.JournalSweep()
	if ev, ok := sub.TryNext(); ok {
		t.Fatalf("quiescent drain published %+v", ev)
	}
}

// Clean/dirty transitions mark the window themselves, not only through
// the tag rewrite that usually follows them.
func TestSetModifiedMarks(t *testing.T) {
	h, _ := world(t)
	_, jw := attachMemJournal(t, h, 1<<20)
	defer jw.Close()
	w := h.NewWindow()
	h.JournalSweep()
	for _, m := range []bool{true, false} {
		w.SetModified(m)
		if !w.dirty {
			t.Fatalf("SetModified(%v) left the window out of the dirty set", m)
		}
		h.JournalSweep()
		if err := AuditShadows(h); err != nil {
			t.Fatal(err)
		}
	}
}

// A panic inside the drain is counted and reported like any other
// recovered panic, and the windows it had not reached are drained next
// time instead of being lost.
func TestDrainPanicCounted(t *testing.T) {
	h, _ := world(t)
	a, b := h.NewWindow(), h.NewWindow()
	h.JournalSweep()
	a.Body.Insert(0, "a")
	b.Body.Insert(0, "b")

	planted := false
	h.Notify.SetTap(func(ev notify.Event) {
		if !planted && ev.Kind == "body" {
			planted = true
			panic("planted in the drain")
		}
	})
	h.JournalSweep()
	if !planted {
		t.Fatal("the planted panic never fired")
	}
	if got := h.PanicCount(); got != 1 {
		t.Fatalf("PanicCount = %d, want 1", got)
	}
	found := false
	for _, sp := range h.Obs.Spans() {
		if sp.Name == "panic" && strings.Contains(sp.Attrs, "planted in the drain") {
			found = true
		}
	}
	if !found {
		t.Fatal("no obs panic event for the drain's panic")
	}
	if !b.dirty {
		t.Fatal("window the drain had not reached was dropped from the dirty set")
	}
	h.JournalSweep()
	if err := AuditShadows(h); err != nil {
		t.Fatal(err)
	}
}

// A closed window is garbage: nothing the session keeps — the column's
// window slice in particular — still points at it or its buffers.
func TestClosedWindowCollected(t *testing.T) {
	h, _ := world(t)
	h.NewWindowIn(0)
	w := h.NewWindowIn(0)
	if c := h.cols[0]; c.wins[len(c.wins)-1] != w {
		t.Fatal("setup: the newest window should sort last in its column")
	}
	w.Body.SetString(strings.Repeat("text\n", 100))
	h.Render()
	collected := make(chan struct{})
	runtime.SetFinalizer(w.Body, func(*text.Buffer) { close(collected) })
	h.CloseWindow(w)
	w = nil
	h.JournalSweep()
	h.Render()
	// The session must stay alive through the check, or the window
	// would be collected along with everything else.
	defer runtime.KeepAlive(h)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("closed window's body buffer is still reachable")
}

// The drain sees a change only if the code that made it marked the
// window, and a render repaints only the columns that were damaged, so
// the fields the drain shadows and the session state a repaint reads
// are written through their setters and nowhere else in the package.
func TestTrackedFieldsUseSetters(t *testing.T) {
	tracked := map[string]bool{"Sel": true, "q": true, "top": true, "hidden": true, "col": true, "bodyOrg": true,
		"curWin": true, "curSub": true, "sweepExec": true}
	setters := map[string]bool{"setSel": true, "setOrg": true, "setTop": true, "setHidden": true, "setCol": true,
		"setCurrent": true, "setSweep": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["core"].Files {
		files = append(files, f)
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("repro/internal/core", fset, files, info); err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{"Window": true, "Selections": true, "Help": true}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || setters[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch s := n.(type) {
				case *ast.AssignStmt:
					lhs = s.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{s.X}
				}
				for _, e := range lhs {
					for {
						ix, ok := e.(*ast.IndexExpr)
						if !ok {
							break
						}
						e = ix.X
					}
					sel, ok := e.(*ast.SelectorExpr)
					if !ok || !tracked[sel.Sel.Name] {
						continue
					}
					s := info.Selections[sel]
					if s == nil {
						continue
					}
					recv := s.Recv()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if named, ok := recv.(*types.Named); ok && owners[named.Obj().Name()] {
						t.Errorf("%s: %s writes %s directly; use its setter",
							fset.Position(sel.Pos()), fn.Name.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
