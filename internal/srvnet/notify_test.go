package srvnet

import (
	"bufio"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/world"
)

// The readwait surface: a remote subscriber parks on an event stream
// with zero polling traffic, resumes from its last seq across faults
// and redials, and feeds the client cache's push invalidation. Run
// under -race via `make test`.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parseEvents splits a readwait payload into events.
func parseEvents(t *testing.T, data []byte) []notify.Event {
	t.Helper()
	var evs []notify.Event
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		ev, ok := notify.ParseLine(line)
		if !ok {
			t.Fatalf("unparseable event line %q", line)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestReadWaitDeliversEventWithoutPolling is the tentpole acceptance
// test: a remote subscriber blocked on /mnt/help/log receives a
// window-create event end to end, and the wire carries exactly one
// request for the whole wait — no polling.
func TestReadWaitDeliversEventWithoutPolling(t *testing.T) {
	base := runtime.NumGoroutine()
	w, err := world.Build(100, 40)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(w.FS)
	go srv.Serve(l)
	c, cc := dialCounting(t, l.Addr().String())

	seq0 := w.Help.Notify.Seq()
	writes0 := cc.writes.Load()
	type result struct {
		evs  []notify.Event
		next uint64
		err  error
	}
	got := make(chan result, 1)
	go func() {
		data, next, err := c.ReadWait(world.MountRoot+"/log", seq0, 10*time.Second)
		if err != nil {
			got <- result{nil, next, err}
			return
		}
		got <- result{parseEvents(t, data), next, err}
	}()

	// The single readwait request goes out, then the client sits
	// silent: any further write while parked would be polling.
	waitFor(t, "readwait request sent", func() bool { return cc.writes.Load() > writes0 })
	sent := cc.writes.Load()
	time.Sleep(100 * time.Millisecond)
	if n := cc.writes.Load(); n != sent {
		t.Fatalf("client wrote %d frames while parked, want 0", n-sent)
	}

	w.Help.NewWindow()

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("ReadWait: %v", r.err)
		}
		found := false
		for _, ev := range r.evs {
			if ev.Kind == "new" {
				found = true
				if r.next < ev.Seq {
					t.Errorf("resume seq %d < event seq %d", r.next, ev.Seq)
				}
			}
		}
		if !found {
			t.Fatalf("no new-window event in %+v", r.evs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked readwait never woke on window create")
	}
	if n := cc.writes.Load(); n != sent {
		t.Errorf("wire writes for the whole wait = %d, want 1 request", n-writes0)
	}
	c.Close()
	l.Close()
	srv.Shutdown(shutdownCtx(t))
	waitGoroutines(t, base)
}

// TestPushInvalidationSkipsStat is the cache acceptance test: after a
// remote edit, the push-invalidated client serves the next read fresh
// off the wire without ever issuing a Stat revalidation.
func TestPushInvalidationSkipsStat(t *testing.T) {
	w, err := world.Build(100, 40)
	if err != nil {
		t.Fatal(err)
	}
	win := w.Help.NewWindow()
	win.Body.SetString("v1")
	body := world.MountRoot + "/1/body"

	reader, _ := serve(t, w.FS)
	reg := obs.New()
	reader.Obs = reg
	reader.SetCache(true)
	stop := reader.StartPushInval(world.MountRoot)
	defer stop()
	// Let the invalidation stream park before anything changes.
	time.Sleep(50 * time.Millisecond)

	// Warm the cache: miss, then hit.
	if data, err := reader.ReadFile(body); err != nil || string(data) != "v1" {
		t.Fatalf("first read = %q err=%v", data, err)
	}
	if data, err := reader.ReadFile(body); err != nil || string(data) != "v1" {
		t.Fatalf("cached read = %q err=%v", data, err)
	}

	// A second machine edits the window through the file interface.
	writer, _ := serve(t, w.FS)
	if err := writer.WriteFile(body, []byte("v2")); err != nil {
		t.Fatal(err)
	}

	// The invalidation is pushed, not pulled: the counter moves with no
	// read traffic from this client.
	waitFor(t, "push invalidation", func() bool {
		return reg.Counter("srvnet.cache.pushinval").Load() > 0
	})
	data, err := reader.ReadFile(body)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read after push invalidation = %q err=%v, want fresh v2", data, err)
	}
	if n := reg.Histogram("srvnet.stat").Count(); n != 0 {
		t.Errorf("client issued %d Stat round trips, want 0", n)
	}
}

// TestReadWaitBudgetCoversServerPark: wait <= 0 delegates the park
// length to the server, whose cap can reach maxReadWait, so the
// client-side reply budget must cover the whole cap. Budgeting only the
// base timeout let a maximum-length empty poll on an idle session
// outlive the client timer and poison the connection — under defaults,
// StartPushInval killed an idle connection (and every in-flight call on
// it) roughly every 30 seconds.
func TestReadWaitBudgetCoversServerPark(t *testing.T) {
	c := &Client{Timeout: 50 * time.Millisecond}
	if got, want := c.readWaitBudget(0), 50*time.Millisecond+maxReadWait; got != want {
		t.Errorf("budget(0) = %v, want %v", got, want)
	}
	if got, want := c.readWaitBudget(2*time.Second), 50*time.Millisecond+2*time.Second; got != want {
		t.Errorf("budget(2s) = %v, want %v", got, want)
	}
	c.Timeout = -1 // "no timeout" must stay unbounded
	if got := c.readWaitBudget(0); got != 0 {
		t.Errorf("budget with no timeout = %v, want 0", got)
	}
}

// TestReadWaitIdleZeroWaitOutlivesClientTimeout drives the same bug end
// to end: an empty maximum-length poll (wait 0 on an idle bus) whose
// server park exceeds the client's base timeout must return as a normal
// empty poll, leaving the connection healthy — not trip the timer and
// poison it.
func TestReadWaitIdleZeroWaitOutlivesClientTimeout(t *testing.T) {
	fs := vfs.New()
	bus := notify.New()
	if err := fs.RegisterDevice("/log", notify.Device{Bus: bus}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	srv.IdleTimeout = 400 * time.Millisecond // server park cap = 200ms
	go srv.Serve(l)
	defer srv.Shutdown(shutdownCtx(t))
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 100 * time.Millisecond // shorter than the server's park

	data, _, err := c.ReadWait("/log", 0, 0)
	if err != nil {
		t.Fatalf("idle empty poll: %v", err)
	}
	if len(data) != 0 {
		t.Errorf("idle poll returned %q, want empty", data)
	}
	// The poll must not have poisoned the connection.
	if _, err := c.Stat("/log"); err != nil {
		t.Fatalf("connection dead after idle poll: %v", err)
	}
}

// TestPipelinedReadBehindParkedReadWaitFlushes: reply defers its flush
// while more requests sit in the queue, expecting the next reply to
// share it — but a readwait that parks emits nothing until its event
// arrives, so a reply batched behind it must be flushed at park time.
// It used to sit in the write buffer for the whole poll: a client
// pipelining any op behind a long poll (StartPushInval re-arming while
// another call is in flight) timed out and poisoned the connection.
func TestPipelinedReadBehindParkedReadWaitFlushes(t *testing.T) {
	fs := vfs.New()
	bus := notify.New()
	if err := fs.RegisterDevice("/log", notify.Device{Bus: bus}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	go srv.Serve(l)
	defer srv.Shutdown(shutdownCtx(t))
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One TCP write carries both frames, so the read's reply is written
	// while the readwait is already queued behind it.
	frames := append(reqFrame(request{Seq: 1, Op: opRead, Path: "/log"}),
		reqFrame(request{Seq: 2, Op: opReadWait, Path: "/log", Offset: 0, Wait: 60000})...)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	var resp response
	if err := readResp(bufio.NewReader(conn), &resp); err != nil {
		t.Fatalf("read reply never flushed behind the parked readwait: %v", err)
	}
	if resp.Seq != 1 {
		t.Fatalf("first reply = %+v, want seq 1", resp)
	}
}

// TestPushInvalWatcherDeathDisablesCache: a push-invalidation stream
// the server refuses on a still-healthy connection must not die
// silently while the cache keeps serving — the failures are counted,
// retried, and when they persist the cache is disabled, so reads go
// back to the wire instead of trusting entries nothing invalidates.
func TestPushInvalWatcherDeathDisablesCache(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("x"))
	c, _ := serve(t, fs)
	reg := obs.New()
	c.Obs = reg
	c.SetCache(true)
	// No /nosuch/log exists: every poll is refused on a healthy conn.
	stop := c.StartPushInval("/nosuch")
	defer stop()

	waitFor(t, "watcher to disable the cache", func() bool { return !c.cacheEnabled() })
	if n := reg.Counter("srvnet.cache.pushinval.err").Load(); n == 0 {
		t.Error("watcher failures not counted")
	}
	// The refusals never poisoned the connection: plain ops still work.
	if data, err := c.ReadFile("/d/f"); err != nil || string(data) != "x" {
		t.Fatalf("read after watcher death = %q err=%v, want x", data, err)
	}
}

// TestReadWaitFaultMatrix is the satellite: a subscriber whose first
// connection drops, stalls, or dies mid-reply resumes from its last
// seq after the redial with no events duplicated or lost, and leaves
// no goroutines behind.
func TestReadWaitFaultMatrix(t *testing.T) {
	for _, sc := range matrixScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			fs := vfs.New()
			bus := notify.New()
			if err := fs.RegisterDevice("/log", notify.Device{Bus: bus}); err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			fl := faultnet.WrapListener(l, func(i int) *faultnet.Script {
				if i == 0 {
					return sc.script()
				}
				return nil
			})
			srv := NewServer(fs)
			srv.IdleTimeout = 500 * time.Millisecond
			srv.WriteTimeout = 200 * time.Millisecond
			go srv.Serve(fl)
			rc := NewReconnectingClient(l.Addr().String())
			rc.OpTimeout = 150 * time.Millisecond
			rc.BackoffBase = time.Millisecond
			rc.BackoffCap = 10 * time.Millisecond

			// Events 1..3 exist before the subscriber ever connects;
			// seq 1 is the anchor it resumes from.
			for i := 0; i < 3; i++ {
				bus.Publish(1, "body", "")
			}
			data, next, err := rc.ReadWait("/log", 1, 100*time.Millisecond)
			if err != nil {
				t.Fatalf("first ReadWait: %v", err)
			}
			var seqs []uint64
			for _, ev := range parseEvents(t, data) {
				seqs = append(seqs, ev.Seq)
			}
			bus.Publish(1, "body", "")
			bus.Publish(1, "body", "")
			data, _, err = rc.ReadWait("/log", next, 100*time.Millisecond)
			if err != nil {
				t.Fatalf("resumed ReadWait: %v", err)
			}
			for _, ev := range parseEvents(t, data) {
				seqs = append(seqs, ev.Seq)
			}
			want := []uint64{2, 3, 4, 5}
			if len(seqs) != len(want) {
				t.Fatalf("seqs = %v, want %v (dup or lost events)", seqs, want)
			}
			for i := range want {
				if seqs[i] != want[i] {
					t.Fatalf("seqs = %v, want %v", seqs, want)
				}
			}

			rc.Close()
			srv.Shutdown(shutdownCtx(t))
			waitGoroutines(t, base)
		})
	}
}

// TestCacheResetOnRedial is the satellite: dropping the cache on a
// redial bumps srvnet.cache.reset so operators can see churn.
func TestCacheResetOnRedial(t *testing.T) {
	rc, srv, l := matrixWorld(t, func(i int) *faultnet.Script {
		if i == 0 {
			return faultnet.NewScript(faultnet.Fault{Op: "write", After: 0, Kind: faultnet.Drop})
		}
		return nil
	})
	defer l.Close()
	defer srv.Shutdown(shutdownCtx(t))
	defer rc.Close()
	reg := obs.New()
	rc.Obs = reg
	rc.CacheReads = true

	// First op dials, hits the dropped reply, redials, succeeds.
	if _, err := rc.ReadFile("/d/f"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("srvnet.cache.reset").Load(); n == 0 {
		t.Error("cache reset on redial not counted")
	}
}
