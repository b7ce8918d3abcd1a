package srvnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

// testHub is a Hub over in-memory namespaces, one per session name,
// created on first attach. It counts attaches and live attachments so
// tests can assert detach bookkeeping.
type testHub struct {
	mu       sync.Mutex
	sessions map[string]*vfs.FS
	attaches map[string]int
	live     map[string]int
	err      error // when set, AttachSession fails with it
}

func newTestHub() *testHub {
	return &testHub{
		sessions: map[string]*vfs.FS{},
		attaches: map[string]int{},
		live:     map[string]int{},
	}
}

func (h *testHub) AttachSession(name string) (*vfs.FS, func(), error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return nil, nil, h.err
	}
	fs, ok := h.sessions[name]
	if !ok {
		fs = vfs.New()
		fs.MkdirAll("/d")
		fs.WriteFile("/d/who", []byte(name))
		h.sessions[name] = fs
	}
	h.attaches[name]++
	h.live[name]++
	detach := func() {
		h.mu.Lock()
		h.live[name]--
		h.mu.Unlock()
	}
	return fs, detach, nil
}

func (h *testHub) counts(name string) (attaches, live int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.attaches[name], h.live[name]
}

// muxServe starts a mux server over hub and returns its address.
func muxServe(t *testing.T, hub Hub) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMuxServer(hub)
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String(), srv
}

func TestMuxAttachIsolatesSessions(t *testing.T) {
	hub := newTestHub()
	addr, _ := muxServe(t, hub)

	ca, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()

	// Before the handshake the connection has no namespace.
	if _, err := ca.ReadFile("/d/who"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("op before attach: err = %v, want ErrNoSession", err)
	}
	if err := ca.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if who, _ := ca.ReadFile("/d/who"); string(who) != "a" {
		t.Fatalf("who = %q, want a", who)
	}
	if err := ca.WriteFile("/d/f", []byte("private to a")); err != nil {
		t.Fatal(err)
	}

	cb, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if err := cb.Attach("b"); err != nil {
		t.Fatal(err)
	}
	if who, _ := cb.ReadFile("/d/who"); string(who) != "b" {
		t.Fatalf("who = %q, want b", who)
	}
	// Session a's write must not be visible in session b.
	if _, err := cb.ReadFile("/d/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("cross-session read: err = %v, want ErrNotExist", err)
	}

	// Re-attaching switches the connection and detaches the old session.
	if err := ca.Attach("b"); err != nil {
		t.Fatal(err)
	}
	if data, _ := ca.ReadFile("/d/who"); string(data) != "b" {
		t.Fatalf("after re-attach who = %q, want b", data)
	}
	if _, live := hub.counts("a"); live != 0 {
		t.Fatalf("session a live attachments = %d after re-attach, want 0", live)
	}

	// Closing the connections releases the remaining attachments.
	ca.Close()
	cb.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, live := hub.counts("b"); live == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, live := hub.counts("b")
			t.Fatalf("session b live attachments = %d after close, want 0", live)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMuxAttachErrorCrossesWire(t *testing.T) {
	hub := newTestHub()
	hub.err = fmt.Errorf("no room: %w", ErrBusy)
	addr, _ := muxServe(t, hub)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Attach("a"); !errors.Is(err, ErrBusy) {
		t.Fatalf("attach: err = %v, want ErrBusy", err)
	}
}

func TestAttachOnSingleNamespaceServerRefused(t *testing.T) {
	fs := vfs.New()
	c, _ := serve(t, fs)
	if err := c.Attach("a"); !errors.Is(err, ErrProto) {
		t.Fatalf("attach on non-mux server: err = %v, want ErrProto", err)
	}
}

// An idle connection nudged by Shutdown hears a typed draining error on
// its next operation instead of a silent hangup.
func TestShutdownNotifiesIdleConnection(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("x"))
	c, srv := serve(t, fs)
	if _, err := c.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := c.ReadFile("/f"); !errors.Is(err, ErrDraining) {
		t.Fatalf("op after shutdown: err = %v, want ErrDraining", err)
	}
}

// A connection refused because the server is draining gets the draining
// code, not busy.
func TestConnectDuringDrainRefusedAsDraining(t *testing.T) {
	fs := vfs.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	go srv.Serve(l)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The listener is closed, but ServeConn itself must also refuse with
	// the typed error for hosts that hand it connections directly. The
	// refusal is unsolicited (Seq 0), so read it straight off the wire.
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()
	defer client.Close()
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp response
	if err := readResp(bufio.NewReader(client), &resp); err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if err := errFromWire(resp.Err, resp.Code, resp.Retry); !errors.Is(err, ErrDraining) {
		t.Fatalf("refusal: err = %v, want ErrDraining", err)
	}
	<-done
}

// ReconnectingClient must degrade immediately on a draining reply — no
// redial storm against a host trying to shut down.
func TestReconnectDegradesImmediatelyOnDrain(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("x"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })

	r := &ReconnectingClient{
		Addr:        l.Addr().String(),
		MaxRetries:  5,
		BackoffBase: 2 * time.Second, // a redial storm would be visible as a long stall
		BackoffCap:  2 * time.Second,
	}
	defer r.Close()
	if _, err := r.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err = r.ReadFile("/f")
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDegraded wrapping ErrDraining", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("degrade took %v: the client retried instead of degrading immediately", d)
	}
	if got := r.State(); got != StateDegraded {
		t.Fatalf("state = %v, want degraded", got)
	}
}

// A redial against a mux server transparently re-attaches the session.
func TestReconnectReattachesSessionAfterDisconnect(t *testing.T) {
	hub := newTestHub()
	addr, srv := muxServe(t, hub)

	r := &ReconnectingClient{Addr: addr, Session: "a", BackoffBase: time.Millisecond}
	defer r.Close()
	if who, err := r.ReadFile("/d/who"); err != nil || string(who) != "a" {
		t.Fatalf("who = %q err = %v", who, err)
	}

	// Sever the connection out from under the client.
	srv.closeConns()

	if who, err := r.ReadFile("/d/who"); err != nil || string(who) != "a" {
		t.Fatalf("after reconnect: who = %q err = %v", who, err)
	}
	if attaches, _ := hub.counts("a"); attaches < 2 {
		t.Fatalf("attach count = %d, want >= 2 (one per dial)", attaches)
	}
}
