package main

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/journal"
	"repro/internal/session"
	"repro/internal/shell"
	"repro/internal/vfs"
	"repro/internal/world"
)

func testConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  0.4,
		trace:    trace,
		work:     t.TempDir(),
		figures:  filepath.Join("..", "figures"),
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each reports its full, named metric set.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload several times")
	}
	for _, name := range []string{"remote-edit", "crowded-session", "desk-session"} {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, name, trace)
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, res.attempted, res.failed)
			}
			want := []string{"op_p50_us", "read_p50_us", "write_p50_us", "setup_s"}
			if trace {
				want = nil
				for _, l := range perLayer {
					want = append(want, l.name)
				}
				want = append(want, "cpu.core", "cpu.gc", "cpu.syscall", "cpu.other")
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				got[m.name] = m
			}
			if !trace {
				for _, m := range res.extra {
					got[m.name] = m
				}
				want = append(want, "live_heap_mb", "ops_per_s", "op_p90_us", "op_p99_us", "failed_frac")
			}
			for _, w := range want {
				m, ok := got[w]
				if !ok || m.unit == "" || math.IsNaN(m.value) {
					t.Errorf("%s trace=%v: metric %s missing or malformed: %+v", name, trace, w, m)
				}
			}
			if !trace {
				for _, m := range res.metrics {
					if m.value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, m.name, m.value)
					}
				}
			}
		}
	}
}

// TestSweepGrowsWithWindows is the measurement's sanity check: a
// quiescent JournalSweep in the crowded session costs many times what
// it costs in a session with few windows.
func TestSweepGrowsWithWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads 2,000 windows")
	}
	sweep := func(crowded bool) float64 {
		cfg := testConfig(t, "remote-edit", true)
		cfg.seconds = 0.6
		res, err := runRemote(cfg, crowded)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.metrics {
			if m.name == "core.sweep_us" {
				return m.value
			}
		}
		t.Fatal("no core.sweep_us")
		return 0
	}
	few, many := sweep(false), sweep(true)
	if many < 10*few {
		t.Errorf("core.sweep_us: %.2f with few windows, %.2f with 2,000: want more than 10x", few, many)
	}
}

// ---- each output check catches a planted mismatch ----------------------------

func TestCheckBodyCatchesMismatch(t *testing.T) {
	w := &winModel{id: 3, body: "hello\n"}
	if err := checkBody(w, "hello\n"); err != nil {
		t.Fatal(err)
	}
	if err := checkBody(w, "hellO\n"); err == nil {
		t.Fatal("a changed byte went unnoticed")
	}
	if err := checkBody(w, "hello\nx"); err == nil {
		t.Fatal("an extra byte went unnoticed")
	}
}

func TestCheckTagCatchesMismatch(t *testing.T) {
	w := &winModel{id: 3, name: "/usr/bench/c0/n1"}
	if err := checkTag(w, "/usr/bench/c0/n1\tClose! Get!"); err != nil {
		t.Fatal(err)
	}
	if err := checkTag(w, "/usr/bench/c0/n2\tClose! Get!"); err == nil {
		t.Fatal("a wrong name went unnoticed")
	}
}

func TestCheckWinDirCatchesMismatch(t *testing.T) {
	w := &winModel{id: 3}
	var ents []vfs.Info
	for _, n := range windowFiles {
		ents = append(ents, vfs.Info{Name: n})
	}
	if err := checkWinDir(w, ents); err != nil {
		t.Fatal(err)
	}
	if err := checkWinDir(w, ents[1:]); err == nil {
		t.Fatal("a missing file went unnoticed")
	}
}

func TestCheckReadWaitCatchesMismatch(t *testing.T) {
	if err := checkReadWait(10, 12, 40, true); err != nil {
		t.Fatal(err)
	}
	if err := checkReadWait(10, 9, 40, false); err == nil {
		t.Fatal("a sequence number going backwards went unnoticed")
	}
	if err := checkReadWait(10, 10, 0, true); err == nil {
		t.Fatal("a mutation without an event went unnoticed")
	}
}

func TestCheckLinesCatchesMismatch(t *testing.T) {
	out := "a:1:x\na:7:y\n"
	if err := checkLines("grep", out, []string{"a:1:x", "a:7:y"}); err != nil {
		t.Fatal(err)
	}
	if err := checkLines("grep", out, []string{"a:1:x", "a:8:y"}); err == nil {
		t.Fatal("a missing line went unnoticed")
	}
}

func TestCheckFigureCatchesMismatch(t *testing.T) {
	figs, err := readFigures(filepath.Join("..", "figures"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := session.Figure(1, deskW, deskH)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFigure(1, st, figs[1]); err != nil {
		t.Fatal(err)
	}
	if err := checkFigure(1, st, strings.Replace(figs[1], "errs.c", "errz.c", 1)); err == nil {
		t.Fatal("a changed screen cell went unnoticed")
	}
}

// journaled builds a world with a journal in dir and edits one window.
func journaled(t *testing.T, dir, body string) *core.Help {
	t.Helper()
	w, err := world.Build(remoteW, remoteH)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := journal.DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := journal.Open(fsys, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jw.Close() })
	w.Help.AttachJournal(jw, 0)
	id, err := newWindow(w.FS.ReadFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.FS.WriteFile(mnt+"/"+strconv.Itoa(id)+"/body", []byte(body)); err != nil {
		t.Fatal(err)
	}
	return w.Help
}

func TestCheckRecoveryCatchesMismatch(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	liveA := journaled(t, dirA, "the body the journal holds\n")
	journaled(t, dirB, "a body the live session never had\n")
	fresh := func() (*core.Help, error) {
		w, err := world.Build(remoteW, remoteH)
		if err != nil {
			return nil, err
		}
		return w.Help, nil
	}
	if err := checkRecovery(liveA, dirA, fresh); err != nil {
		t.Fatalf("own journal: %v", err)
	}
	if err := checkRecovery(liveA, dirB, fresh); err == nil {
		t.Fatal("recovering another session's journal went unnoticed")
	}
}

// TestRemoteModelCatchesMismatch plants a wrong model in a live remote
// run and checks that the run is reported as failed.
func TestRemoteModelCatchesMismatch(t *testing.T) {
	env, err := setupRemote(t.TempDir(), 0, 3, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	cl := env.clients[0]
	w := cl.wins[0]
	if err := cl.do(opBodyWrite, w, "abc\n"); err != nil {
		t.Fatal(err)
	}
	if err := cl.do(opBodyRead, w, ""); err != nil {
		t.Fatal(err)
	}
	if err := env.verify(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	w.body = "abd\n" // the planted mismatch
	if err := cl.do(opBodyRead, w, ""); err != nil {
		t.Fatal(err)
	}
	if err := env.verify(); err == nil {
		t.Fatal("a body that differs from the model went unnoticed")
	}
}

// TestDeskChecksCatchMismatch plants a wrong figure, then a wrong grep
// expectation, in a desk run.
func TestDeskChecksCatchMismatch(t *testing.T) {
	cfg := testConfig(t, "desk-session", false)
	figs, err := readFigures(cfg.figures)
	if err != nil {
		t.Fatal(err)
	}
	lg := makeLog(cfg.seed)
	bad := map[int]string{}
	for n, f := range figs {
		bad[n] = f
	}
	bad[7] = strings.Replace(figs[7], "176153", "176154", 1)
	if _, err := setupDesk(cfg, 0, lg, bad); !errors.Is(err, errCheck) {
		t.Fatalf("a wrong Figure 7 gave %v, want an output-check failure", err)
	}

	d, err := setupDesk(cfg, 1, lg, figs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	u := &user{d: d, st: newOpStats(time.Now()), rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 3; i++ {
		u.typeBurst()
		u.chord()
	}
	if len(u.checks) > 0 {
		t.Fatalf("clean typing and chords: %v", u.checks[0])
	}
	u.grep()
	if len(u.checks) > 0 {
		t.Fatalf("clean grep: %v", u.checks[0])
	}
	for _, m := range lg.markers {
		lg.hits[m] = append(lg.hits[m], 1) // line 1 holds no marker
	}
	u.grep()
	if len(u.checks) == 0 {
		t.Fatal("a grep -n line that is not in the output went unnoticed")
	}
}

// TestCheckEditCatchesMismatch plants the regressions the desk's write
// checks exist for: typing, a backspace, a cut or a paste that does
// nothing, and a paste that adds the line twice.
func TestCheckEditCatchesMismatch(t *testing.T) {
	before := "note0 ab cd\nnote1 ef gh\n"
	at := len("note0 ab cd")
	typed := before[:at] + " xy" + before[at:]
	cut := "note1 ef gh\n"
	for _, c := range []struct {
		what, got, want string
		ok              bool
	}{
		{"typing", typed, typed, true},
		{"typing", before, typed, false},                           // typing did nothing
		{"typing", before[:at] + " x" + before[at:], typed, false}, // a key was lost
		{"backspacing", typed, before, false},                      // backspace did nothing
		{"cut", cut, cut, true},
		{"cut", before, cut, false}, // Cut did nothing
		{"paste", before, before, true},
		{"paste", cut, before, false},                      // Paste did nothing
		{"paste", "note0 ab cd\n" + before, before, false}, // Paste added a duplicate
		{"snarf after cut", "", "note0 ab cd\n", false},    // nothing reached the snarf buffer
	} {
		err := checkEdit(c.what, c.got, c.want)
		if (err == nil) != c.ok {
			t.Errorf("checkEdit(%s, %q, %q) = %v, want ok=%v", c.what, c.got, c.want, err, c.ok)
		}
	}
}

// TestDeskPanicFailsGesture plants a command that panics, executes it
// with a middle click, and checks the gesture is a failed op and the
// run incorrect.
func TestDeskPanicFailsGesture(t *testing.T) {
	cfg := testConfig(t, "desk-session", false)
	figs, err := readFigures(cfg.figures)
	if err != nil {
		t.Fatal(err)
	}
	d, err := setupDesk(cfg, 0, makeLog(cfg.seed), figs)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.w.Shell.Register("boom", func(*shell.Context, []string) int { panic("planted") })
	d.h.Apply(func() { d.scratch.Body.Insert(0, "boom\n") })
	d.h.WaitIdle()
	d.h.Render()
	u := &user{d: d, st: newOpStats(time.Now()), rng: rand.New(rand.NewSource(1))}
	p, ok := u.find(d.scratch, "boom")
	if !ok {
		t.Fatal("boom not on screen")
	}
	p.X++
	u.gesture(classExec, event.Click(event.Middle, p))
	if len(u.checks) == 0 {
		t.Fatal("a panic the guards recovered went unnoticed")
	}
	if sum := summarize([]*opStats{u.st}, time.Second); sum.failed != 1 {
		t.Fatalf("failed ops = %d, want 1", sum.failed)
	}
}

// plantRemote runs a short remote-edit with plant applied after the
// measured phase and returns what runRemote reported.
func plantRemote(t *testing.T, plant func(env *remoteEnv)) (*result, error) {
	t.Helper()
	afterMeasure = plant
	defer func() { afterMeasure = nil }()
	cfg := testConfig(t, "remote-edit", false)
	cfg.seconds = 0.3
	return runRemote(cfg, false)
}

// TestRemoteRecoveryCatchesLostTail writes a body over the wire after
// the measured phase, then cuts that write's records off the end of the
// session's journal, so recovery replays the measured tail without it.
func TestRemoteRecoveryCatchesLostTail(t *testing.T) {
	res, err := plantRemote(t, func(env *remoteEnv) {
		name := env.names[0]
		h := env.worlds[name].Help
		dir := filepath.Join(env.dir, name)
		flush := func() string {
			h.WaitIdle()
			if err := h.Journal().Flush(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no journal segments in %s: %v", dir, err)
			}
			sort.Strings(segs)
			return segs[len(segs)-1]
		}
		seg := flush()
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		cl := env.clients[0]
		if err := cl.do(opBodyWrite, cl.wins[0], "a write the journal loses\n"); err != nil {
			t.Fatal(err)
		}
		if flush() != seg {
			t.Fatal("a checkpoint started a new segment; cannot cut the write off the tail")
		}
		if err := os.Truncate(seg, fi.Size()); err != nil {
			t.Fatal(err)
		}
	})
	if !errors.Is(err, errCheck) || res == nil || res.metrics != nil {
		t.Fatalf("a journal that lost its last body write gave %v, want an incorrect run with no numbers", err)
	}
}

// TestRemotePanicFailsRun plants a panic in a session after the measured
// phase and checks the run is incorrect and counts it as failed.
func TestRemotePanicFailsRun(t *testing.T) {
	res, err := plantRemote(t, func(env *remoteEnv) {
		wld := env.worlds[env.names[0]]
		wld.Shell.Register("boom", func(*shell.Context, []string) int { panic("planted") })
		wld.Help.Execute(wld.Help.Windows()[0], "boom")
	})
	if !errors.Is(err, errCheck) || res == nil || res.failed < 1 || res.metrics != nil {
		t.Fatalf("a recovered panic gave %v (result %+v), want an incorrect run with a failed op", err, res)
	}
}

// TestRemoteMixFromTrace checks the op mix follows the repository's
// editing trace and leaves no op kind out.
func TestRemoteMixFromTrace(t *testing.T) {
	reads, writes := 0, 0
	for op := remoteOp(0); op < numRemoteOps; op++ {
		if remoteMix[op] == 0 {
			t.Errorf("op %s has no weight", remoteOpNames[op])
		}
		if op.mutates() {
			writes += remoteMix[op]
		} else {
			reads += remoteMix[op]
		}
	}
	if reads+writes != remoteMixTotal || reads != 4 || writes != 6 {
		t.Errorf("mix %v: %d reads, %d mutations of %d, want 4 and 6 of 10", remoteMix, reads, writes, remoteMixTotal)
	}
}

// TestCPUShares profiles a little work and checks the attribution reads
// the profile and sums to one.
func TestCPUShares(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	w, err := world.Build(remoteW, remoteH)
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		w.Help.Render()
		w.FS.ReadFile(world.SrcDir + "/exec.c")
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v: %v", total, shares)
	}
	if shares["vfs"]+shares["core"]+shares["draw"]+shares["frame"] == 0 {
		t.Errorf("no samples charged to the layers that did the work: %v", shares)
	}
}

func TestChargeRow(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/text.(*Buffer).Insert", "repro/internal/core.x"}, "text"},
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Write", "repro/internal/srvnet.y"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"main.run", "runtime.main"}, "other"},
	} {
		if got := chargeRow(c.stack); got != c.want {
			t.Errorf("chargeRow(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
