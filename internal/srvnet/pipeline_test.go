package srvnet

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// The pipelining surface: multiple requests in flight on one
// connection, replies matched by sequence number in any order, batched
// sends, and redials. Run under -race via `make test`; every test
// asserts the client reader goroutine does not leak.

// countingConn wraps a net.Conn and counts Write calls, so tests can
// prove an operation produced zero wire traffic.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialCounting connects a counting client to addr.
func dialCounting(t *testing.T, addr string) (*Client, *countingConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	c := NewClient(cc)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// TestOutOfOrderRepliesMatchCallers drives the client against a
// handcrafted peer that answers a pipelined pair in reverse order: each
// caller must still receive its own reply, matched by sequence number.
func TestOutOfOrderRepliesMatchCallers(t *testing.T) {
	base := runtime.NumGoroutine()
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		br := bufio.NewReader(server)
		bw := bufio.NewWriter(server)
		var reqs []request
		for len(reqs) < 2 {
			var req request
			if readReq(br, &req) != nil {
				return
			}
			reqs = append(reqs, req)
		}
		// Reverse order: the second request is answered first.
		for i := len(reqs) - 1; i >= 0; i-- {
			resp := response{Seq: reqs[i].Seq, Data: []byte(reqs[i].Path)}
			frameResp(bw, nil, &resp)
		}
		bw.Flush()
	}()

	c := NewClient(client)
	b := c.NewBatch()
	fa := b.ReadFile("/a")
	fb := b.ReadFile("/b")
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// Collect in issue order even though the wire order is reversed.
	if data, err := fa.Data(); err != nil || string(data) != "/a" {
		t.Fatalf("first future: data=%q err=%v", data, err)
	}
	if data, err := fb.Data(); err != nil || string(data) != "/b" {
		t.Fatalf("second future: data=%q err=%v", data, err)
	}
	c.Close()
	server.Close()
	<-done
	waitGoroutines(t, base)
}

// TestPipelinedInterleavedMatrix hammers one connection from many
// goroutines mixing reads, writes, stats, and batches; every reply must
// land with its own caller. The server's executor interleaves freely,
// so this is the out-of-order matrix at load.
func TestPipelinedInterleavedMatrix(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := vfs.New()
	fs.MkdirAll("/d")
	c, srv := serve(t, fs)
	paths := []string{"/d/a", "/d/b", "/d/c", "/d/e"}
	for _, p := range paths {
		if err := c.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := paths[(g+i)%len(paths)]
				switch i % 3 {
				case 0:
					data, err := c.ReadFile(p)
					if err != nil {
						errCh <- err
						return
					}
					if string(data) != p {
						errCh <- errors.New("read " + p + " got " + string(data))
						return
					}
				case 1:
					if _, err := c.Stat(p); err != nil {
						errCh <- err
						return
					}
				case 2:
					b := c.NewBatch()
					futs := make([]*Future, len(paths))
					for j, bp := range paths {
						futs[j] = b.ReadFile(bp)
					}
					for j, f := range futs {
						data, err := f.Data()
						if err != nil {
							errCh <- err
							return
						}
						if string(data) != paths[j] {
							errCh <- errors.New("batch read " + paths[j] + " got " + string(data))
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c.Close()
	srv.Shutdown(shutdownCtx(t))
	waitGoroutines(t, base)
}

// TestCloseUnblocksInFlightCall is the regression test for Close
// waiting behind a hung round trip: against a peer that never answers,
// Close must return promptly and fail the pending call fast.
func TestCloseUnblocksInFlightCall(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			accepted <- conn // held open, never answered
		}
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = -1 // unbounded: only Close can end the call

	callErr := make(chan error, 1)
	go func() {
		_, err := c.ReadFile("/f")
		callErr <- err
	}()
	// Give the request time to be in flight before closing around it.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	c.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v: it waited behind the in-flight call", d)
	}
	select {
	case err := <-callErr:
		if !errors.Is(err, ErrClientClosed) && err == nil {
			t.Fatalf("pending call: err = %v, want failure", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call still blocked after Close")
	}
	if conn := <-accepted; conn != nil {
		conn.Close()
	}
	waitGoroutines(t, base)
}

// TestDefaultTimeoutBoundsDeadPeer is the regression test for Timeout==0
// meaning "wait forever": the zero value must resolve to a real
// deadline, and a bounded client against a silent peer must fail the
// call rather than hang.
func TestDefaultTimeoutBoundsDeadPeer(t *testing.T) {
	c := &Client{}
	if got := c.timeout(); got != DefaultRoundTrip {
		t.Fatalf("zero Timeout resolves to %v, want DefaultRoundTrip (%v)", got, DefaultRoundTrip)
	}
	c.Timeout = -1
	if got := c.timeout(); got != 0 {
		t.Fatalf("negative Timeout resolves to %v, want 0 (unbounded)", got)
	}

	base := runtime.NumGoroutine()
	server, client := net.Pipe()
	defer server.Close()
	cl := NewClient(client)
	cl.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := cl.ReadFile("/f")
	if err == nil {
		t.Fatal("read against silent peer succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timed-out call took %v", d)
	}
	// The timeout poisoned the connection: later calls fail immediately.
	if _, err := cl.ReadFile("/f"); err == nil {
		t.Fatal("call after timeout poison succeeded")
	}
	cl.Close()
	server.Close()
	waitGoroutines(t, base)
}

// TestCacheColdAfterReconnect: a read after a redial returns what the
// server holds now. The file changes while the connection is severed,
// and every read that succeeds afterward must return the new bytes; the
// redial must leave no goroutines behind.
func TestCacheColdAfterReconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := vfs.New()
	fs.MkdirAll("/d")
	fs.WriteFile("/d/f", []byte("before"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	go srv.Serve(l)

	r := &ReconnectingClient{Addr: l.Addr().String(), BackoffBase: time.Millisecond}
	if data, err := r.ReadFile("/d/f"); err != nil || string(data) != "before" {
		t.Fatalf("first read: %q %v", data, err)
	}
	fs.WriteFile("/d/f", []byte("after"))
	srv.closeConns()
	// The client learns of the severed connection asynchronously (its
	// reader must see the close), so a read may fail before the redial;
	// one that succeeds must be fresh.
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := r.ReadFile("/d/f")
		if err == nil {
			if string(data) != "after" {
				t.Fatalf("post-reconnect read = %q, want after", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no successful read after reconnect: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Close()
	srv.Shutdown(shutdownCtx(t))
	waitGoroutines(t, base)
}

// TestReconnectingClientClosed is the regression test for operations
// silently redialing after Close: they must fail with ErrClientClosed.
func TestReconnectingClientClosed(t *testing.T) {
	fs := vfs.New()
	fs.WriteFile("/f", []byte("x"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	go srv.Serve(l)
	defer srv.Shutdown(shutdownCtx(t))

	r := NewReconnectingClient(l.Addr().String())
	if _, err := r.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFile("/f"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("read after Close: err = %v, want ErrClientClosed", err)
	}
	if err := r.WriteFile("/f", []byte("y")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("write after Close: err = %v, want ErrClientClosed", err)
	}
}

// TestBatchFlushIsOneWrite: a flushed batch of small requests reaches
// the socket as a single write.
func TestBatchFlushIsOneWrite(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	for _, p := range []string{"/d/a", "/d/b", "/d/c"} {
		fs.WriteFile(p, []byte(p))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	go srv.Serve(l)
	defer srv.Shutdown(shutdownCtx(t))

	c, cc := dialCounting(t, l.Addr().String())
	before := cc.writes.Load()
	b := c.NewBatch()
	futs := []*Future{b.ReadFile("/d/a"), b.ReadFile("/d/b"), b.ReadFile("/d/c")}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load() - before; got != 1 {
		t.Fatalf("batch of 3 produced %d writes, want 1", got)
	}
	for i, f := range futs {
		p := []string{"/d/a", "/d/b", "/d/c"}[i]
		if data, err := f.Data(); err != nil || string(data) != p {
			t.Fatalf("future %d: %q %v", i, data, err)
		}
	}
}

// TestReadFilesPipelined: the ReconnectingClient batch read returns
// positional results and survives the fault matrix's healthy path.
func TestReadFilesPipelined(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	paths := []string{"/d/a", "/d/b", "/d/c"}
	for _, p := range paths {
		fs.WriteFile(p, []byte("body of "+p))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(fs)
	go srv.Serve(l)
	defer srv.Shutdown(shutdownCtx(t))

	r := NewReconnectingClient(l.Addr().String())
	defer r.Close()
	datas, err := r.ReadFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if string(datas[i]) != "body of "+p {
			t.Fatalf("datas[%d] = %q", i, datas[i])
		}
	}
	// A missing path fails the whole batch with the typed error, and the
	// connection stays usable afterward.
	if _, err := r.ReadFiles([]string{"/d/a", "/d/missing"}); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("batch with missing path: err = %v, want ErrNotExist", err)
	}
	if data, err := r.ReadFile("/d/a"); err != nil || string(data) != "body of /d/a" {
		t.Fatalf("read after failed batch: %q %v", data, err)
	}
}

// TestFaultMatrixPipelinedFrames re-runs the scripted fault matrix with
// pipelined frames: a faulty first connection must still end in the
// correct positional results after redial, and a fully-faulty world in
// a typed ErrDegraded — never a hang or a leak.
func TestFaultMatrixPipelinedFrames(t *testing.T) {
	paths := []string{"/d/f", "/d/f", "/d/f"}
	for _, sc := range matrixScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			rc, srv, l := matrixWorld(t, func(i int) *faultnet.Script {
				if i == 0 {
					return sc.script()
				}
				return nil
			})
			defer l.Close()
			datas, err := rc.ReadFiles(paths)
			if err != nil {
				t.Fatalf("err = %v", err)
			}
			for i := range paths {
				if string(datas[i]) != "the payload" {
					t.Fatalf("datas[%d] = %q", i, datas[i])
				}
			}
			rc.Close()
			l.Close()
			srv.Shutdown(shutdownCtx(t))
			waitGoroutines(t, base)
		})
	}
}

// TestReadFileAtUsesReadahead: sequential chunked reads hit the
// server's readahead slot after the first chunk snapshots the body.
func TestReadFileAtUsesReadahead(t *testing.T) {
	base := runtime.NumGoroutine()
	fs := vfs.New()
	fs.MkdirAll("/d")
	body := make([]byte, 10000)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	fs.WriteFile("/d/big", body)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.New()
	srv := NewServer(fs)
	srv.Obs = reg
	go srv.Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for off := int64(0); ; {
		chunk, err := c.ReadFileAt("/d/big", off, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
		off += int64(len(chunk))
	}
	if string(got) != string(body) {
		t.Fatalf("chunked read reassembled %d bytes, want %d (mismatch)", len(got), len(body))
	}
	snap := reg.StatsMap()
	if snap["srvnet.readahead.miss"] != 1 {
		t.Fatalf("readahead.miss = %d, want 1", snap["srvnet.readahead.miss"])
	}
	if hits := snap["srvnet.readahead.hit"]; hits < 9 {
		t.Fatalf("readahead.hit = %d, want >= 9", hits)
	}
	// A write moves the generation: the slot must re-snapshot, not serve
	// the stale body.
	fs.WriteFile("/d/big", []byte("rewritten"))
	chunk, err := c.ReadFileAt("/d/big", 0, 100)
	if err != nil || string(chunk) != "rewritten" {
		t.Fatalf("post-write chunk = %q err=%v", chunk, err)
	}
	c.Close()
	srv.Shutdown(shutdownCtx(t))
	waitGoroutines(t, base)
}
