package srvnet

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/notify"
	"repro/internal/vfs"
	"repro/internal/world"
)

// The readwait surface: a remote subscriber parks on an event stream
// with zero polling traffic, resumes from its last seq across faults
// and redials. Run under -race via `make test`.

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

// TestRemoteReadsSeeEveryWrite pins read freshness on the wire. In
// /mnt/help writing one file changes another — bodyapp appends to body,
// a ctl rename changes tag — so a remote read must return what the
// server holds when it serves the read, whoever wrote it and through
// whichever file. Client A is built as help -remote builds it.
func TestRemoteReadsSeeEveryWrite(t *testing.T) {
	w, err := world.Build(100, 40)
	if err != nil {
		t.Fatal(err)
	}
	win := w.Help.NewWindow()
	win.Body.SetString("v1")
	dir := fmt.Sprintf("%s/%d", world.MountRoot, win.ID)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(w.FS)
	go srv.Serve(l)
	defer srv.Shutdown(shutdownCtx(t))
	a := NewReconnectingClient(l.Addr().String())
	defer a.Close()
	b, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if data, err := a.ReadFile(dir + "/body"); err != nil || string(data) != "v1" {
		t.Fatalf("first body read = %q err=%v, want v1", data, err)
	}
	if _, err := a.ReadFile(dir + "/tag"); err != nil {
		t.Fatal(err)
	}

	// Another client replaces the body.
	if err := b.WriteFile(dir+"/body", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if data, err := a.ReadFile(dir + "/body"); err != nil || string(data) != "v2" {
		t.Errorf("body after another client's write = %q err=%v, want v2", data, err)
	}

	// A's own append lands in body through a different file.
	if err := a.AppendFile(dir+"/bodyapp", []byte(" more")); err != nil {
		t.Fatal(err)
	}
	if data, err := a.ReadFile(dir + "/body"); err != nil || string(data) != "v2 more" {
		t.Errorf("body after bodyapp append = %q err=%v, want %q", data, err, "v2 more")
	}

	// A's rename through ctl changes what tag shows.
	if err := a.WriteFile(dir+"/ctl", []byte("name /tmp/renamed\n")); err != nil {
		t.Fatal(err)
	}
	if data, err := a.ReadFile(dir + "/tag"); err != nil || !strings.HasPrefix(string(data), "/tmp/renamed") {
		t.Errorf("tag after ctl rename = %q err=%v, want it to start with /tmp/renamed", data, err)
	}
}

// TestReadWaitBudgetCoversServerPark: wait <= 0 delegates the park
// length to the server, whose cap can reach maxReadWait, so the
// client-side reply budget must cover the whole cap. Budgeting only the
// base timeout let a maximum-length empty poll on an idle session
// outlive the client timer and poison the connection — under defaults,
// a subscriber long-polling with wait 0 killed an idle connection (and
// every in-flight call on it) roughly every 30 seconds.
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
// pipelining any op behind a long poll (a subscriber re-arming its
// poll while another call is in flight) timed out and poisoned the
// connection.
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
