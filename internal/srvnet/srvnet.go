// Package srvnet exports a vfs namespace over a network connection,
// simulating the multi-machine Plan 9 environment of the paper's
// Discussion: "help could run on the terminal and make an invisible call
// to the CPU server, sending requests to run applications to the remote
// shell-like process."
//
// The protocol is a minimal file service in the spirit of 9P: every
// message is one binary frame, len[4] crc[4] body, laid out in wire.go.
// The call is only "invisible" if the wire path keeps up with the user
// interface, so the transport is built for throughput as well as fault
// tolerance:
//
//   - Requests are pipelined. The Client splits into a writer (callers
//     encode under a write mutex) and one dedicated reader goroutine
//     that matches replies to callers by sequence number, so any number
//     of requests can be in flight on one connection at once and replies
//     may arrive out of order. The Batch API queues several operations
//     and pushes them onto the wire in a single buffered write.
//   - The server decouples reading from execution: a per-connection
//     reader goroutine queues decoded requests (up to pipelineDepth)
//     while the executor runs earlier ones, and replies are coalesced
//     into batched flushes — the write buffer is only pushed to the
//     socket when the request queue momentarily drains.
//   - Every read goes to the server: the Client keeps no cache, so a
//     read returns what the namespace holds when the server serves it.
//     In /mnt/help writing one file changes another (bodyapp appends to
//     body, a ctl rename changes tag), which no client cache keyed by
//     the path it wrote could follow.
//   - Sequential chunked reads ("readat") are served from a
//     per-connection readahead slot: the first chunk snapshots the whole
//     body once, later chunks slice it while the generation holds.
//
// The transport is hardened end to end: the server bounds idle
// connections and response writes with deadlines, tracks every
// connection in a registry, replies with an explicit protocol error to
// malformed frames, and drains in-flight requests on Shutdown; error
// replies carry a machine-readable code so vfs sentinel errors survive
// the wire and errors.Is works remotely; the Client bounds each round
// trip with a deadline (a sane default applies when none is set) and a
// Close during an in-flight call closes the connection out of band so
// nothing waits behind a hung peer; ReconnectingClient (reconnect.go)
// adds automatic redial with capped, jittered exponential backoff for
// idempotent operations, degrading to a typed ErrDegraded instead of
// hanging when the remote side is gone.
//
// With a Server wrapped around the world's namespace, a Client on
// another machine can drive the entire user interface through
// /mnt/help — create windows, fill bodies, send control messages — with
// no code beyond file operations, exactly the paper's model.
package srvnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// Typed protocol-level errors. Test with errors.Is.
var (
	// ErrProto marks a protocol violation: a malformed frame reported
	// by the peer, or an out-of-sequence response. The connection is
	// not usable afterward.
	ErrProto = errors.New("srvnet: protocol error")
	// ErrBusy is a transient server refusal: the connection registry,
	// the waiter budget, or a daemon resource budget is full. It wraps
	// vfs.ErrBusy so a refusal classifies the same on both sides of the
	// wire, and the reply may carry a retry-after hint (RetryAfter).
	ErrBusy = fmt.Errorf("srvnet: server busy: %w", vfs.ErrBusy)
	// ErrDraining is the reply once Shutdown has begun: the server is
	// deliberately going away, so clients should degrade immediately
	// instead of treating the condition as transient and redialing.
	ErrDraining = errors.New("srvnet: server draining")
	// ErrNoSession is the reply to an operation on a multiplexing server
	// before the connection has attached to a session.
	ErrNoSession = errors.New("srvnet: no session attached")
	// ErrClientClosed is returned by operations on a closed Client.
	ErrClientClosed = errors.New("srvnet: client closed")
)

// Server tuning defaults.
const (
	DefaultIdleTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
	DefaultMaxConns     = 64
	// DefaultRoundTrip bounds a Client round trip when the Timeout field
	// is left zero, so a dead peer fails the call instead of hanging it
	// forever.
	DefaultRoundTrip = 30 * time.Second
	// pipelineDepth is how many decoded requests may queue behind the
	// executor on one server connection before the reader blocks.
	pipelineDepth = 64
	// maxReadWait caps one readwait long poll server-side; together with
	// the idleTimeout/2 bound it keeps a parked subscriber's silence well
	// under the idle deadline, so the poll itself cannot look like a dead
	// peer.
	maxReadWait = 30 * time.Second
	// maxConnWaiters bounds parked readwait goroutines per connection; a
	// readwait beyond the cap is answered as an immediate poll instead of
	// parking, so a flooding client degrades to polling rather than
	// growing goroutines.
	maxConnWaiters = 16
	// DefaultMaxWaiters bounds parked readwait goroutines server-wide:
	// many clients each under their per-conn cap can still add up to
	// thousands of parked goroutines, so the server holds a global
	// budget too. Overflow degrades to an immediate poll, same as the
	// per-conn cap.
	DefaultMaxWaiters = 1024
	// DefaultRetryAfter is the retry-after hint a busy refusal carries
	// when the refusing budget did not name its own.
	DefaultRetryAfter = 250 * time.Millisecond
	// defaultReadChunk is the "readat" chunk size when the request
	// leaves Count zero.
	defaultReadChunk = 64 * 1024
	// wireBufSize sizes the bufio layers on both ends. Batched replies
	// only amortize syscalls if the writer can hold a pipeline window's
	// worth of frames before spilling; the stock 4 KiB buffer forces a
	// write every few 1 KiB payloads.
	wireBufSize = 64 * 1024
)

// codeOf maps a server-side error to its wire code; codeNone if none
// applies.
func codeOf(err error) code {
	switch {
	case errors.Is(err, vfs.ErrNotExist):
		return codeNotExist
	case errors.Is(err, vfs.ErrExist):
		return codeExist
	case errors.Is(err, vfs.ErrIsDir):
		return codeIsDir
	case errors.Is(err, vfs.ErrNotDir):
		return codeNotDir
	case errors.Is(err, vfs.ErrPerm):
		return codePerm
	case errors.Is(err, vfs.ErrBadMode):
		return codeBadMode
	case errors.Is(err, ErrDraining):
		return codeDraining
	case errors.Is(err, vfs.ErrBusy):
		// ErrBusy wraps vfs.ErrBusy, so this covers both the wire
		// sentinel and typed budget refusals (vfs.BusyError).
		return codeBusy
	case errors.Is(err, ErrNoSession):
		return codeNoSess
	}
	return codeNone
}

// wireError reconstructs a remote error on the client: the message is
// the server's, Unwrap restores the sentinel named by the wire code,
// and retry keeps a busy reply's retry-after hint.
type wireError struct {
	msg   string
	base  error
	retry time.Duration
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.base }

// RetryAfter reports the server's retry-after hint (0: none), so
// vfs.RetryAfter works on remote refusals.
func (e *wireError) RetryAfter() time.Duration { return e.retry }

// errFromWire turns an error reply into a client-side error that keeps
// the remote message, the sentinel named by the wire code, and — on a
// busy refusal — the retry-after hint (retryMS, milliseconds).
func errFromWire(msg string, c code, retryMS int64) error {
	if int(c) < len(codeErrs) && codeErrs[c] != nil {
		return &wireError{msg: msg, base: codeErrs[c], retry: time.Duration(retryMS) * time.Millisecond}
	}
	return errors.New(msg)
}

// Hub resolves attach handshakes for a server that multiplexes many
// session namespaces over one listener (NewMuxServer). AttachSession
// returns the session's namespace and a detach function the server
// calls when the connection leaves the session (re-attach or close).
// The returned namespace must be safe for concurrent use on its own —
// the server does not serialize across sessions in mux mode — which a
// core.Help SafeFS already is.
type Hub interface {
	AttachSession(name string) (fs *vfs.FS, detach func(), err error)
}

// Server exports one namespace, or — with a Hub — one namespace per
// attached session. The zero-value timeouts and limits are replaced by
// the Default* constants; set the fields before Serve to override them.
type Server struct {
	fs  *vfs.FS
	hub Hub
	mu  sync.Mutex

	// IdleTimeout bounds how long a connection may sit between
	// requests before the server closes it.
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write.
	WriteTimeout time.Duration
	// MaxConns bounds concurrently served connections; connections
	// beyond it receive an ErrBusy reply and are closed.
	MaxConns int
	// MaxWaiters bounds parked readwait goroutines across all
	// connections (DefaultMaxWaiters when zero; negative disables the
	// bound). A readwait beyond the budget is answered as an immediate
	// poll instead of parking.
	MaxWaiters int
	// RetryAfter is the retry-after hint stamped on busy refusals whose
	// cause carries no hint of its own (DefaultRetryAfter when zero).
	RetryAfter time.Duration
	// Obs, when set before Serve, records wire-path counters:
	// srvnet.readahead.hit / srvnet.readahead.miss for the sequential
	// read slot and srvnet.reply.batched for replies coalesced into a
	// later flush. Nil is a no-op.
	Obs *obs.Registry

	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	wg        sync.WaitGroup
	draining  bool

	// waiters counts parked readwait goroutines server-wide against
	// MaxWaiters; atomic so the readwait dispatch path takes no lock.
	waiters atomic.Int64
}

// NewServer wraps fs for serving. The mutex serializes all requests, so
// the namespace needs no locking of its own; anything else touching the
// same namespace concurrently must coordinate through Locker.
func NewServer(fs *vfs.FS) *Server {
	return &Server{
		fs:        fs,
		conns:     map[net.Conn]struct{}{},
		listeners: map[net.Listener]struct{}{},
	}
}

// NewMuxServer wraps a session hub for serving. Connections carry no
// namespace until they send an "attach" naming a session; the hub's
// namespaces serialize themselves, so requests on different sessions
// proceed in parallel.
func NewMuxServer(hub Hub) *Server {
	s := NewServer(nil)
	s.hub = hub
	return s
}

// Locker exposes the serialization lock so a host embedding the server
// (help's event loop) can take the same lock around its own namespace
// access.
func (s *Server) Locker() sync.Locker { return &s.mu }

func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return DefaultIdleTimeout
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return DefaultWriteTimeout
}

func (s *Server) maxConns() int {
	if s.MaxConns > 0 {
		return s.MaxConns
	}
	return DefaultMaxConns
}

func (s *Server) maxWaiters() int {
	if s.MaxWaiters > 0 {
		return s.MaxWaiters
	}
	if s.MaxWaiters < 0 {
		return int(^uint(0) >> 1) // unbounded
	}
	return DefaultMaxWaiters
}

func (s *Server) retryAfter() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return DefaultRetryAfter
}

// retryHintMS resolves the retry-after hint (in wire milliseconds) for
// a busy refusal: the refusing budget's own hint when err carries one,
// the server default otherwise.
func (s *Server) retryHintMS(err error) int64 {
	d := s.retryAfter()
	if hint, ok := vfs.RetryAfter(err); ok {
		d = hint
	}
	ms := int64(d / time.Millisecond)
	if ms <= 0 {
		ms = 1
	}
	return ms
}

// errResp fills an error reply's wire fields, stamping busy refusals
// with their retry-after hint.
func (s *Server) errResp(err error) response {
	resp := response{Err: err.Error(), Code: codeOf(err)}
	if resp.Code == codeBusy {
		resp.Retry = s.retryHintMS(err)
	}
	return resp
}

// acquireWaiter reserves one slot of the server-wide waiter budget,
// reporting false when the budget is exhausted.
func (s *Server) acquireWaiter() bool {
	max := int64(s.maxWaiters())
	for {
		n := s.waiters.Load()
		if n >= max {
			return false
		}
		if s.waiters.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (s *Server) releaseWaiter() { s.waiters.Add(-1) }

// WaiterCount reports parked readwait goroutines server-wide.
func (s *Server) WaiterCount() int { return int(s.waiters.Load()) }

// register adds conn to the registry and reserves a goroutine slot. It
// reports false when the server is draining or full.
func (s *Server) register(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining || len(s.conns) >= s.maxConns() {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// unregister removes conn, closes it, and releases its slot.
func (s *Server) unregister(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	conn.Close()
	s.wg.Done()
}

// closeConns force-closes every live connection.
func (s *Server) closeConns() {
	s.connMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// ConnCount reports the number of live registered connections.
func (s *Server) ConnCount() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.draining
}

// Serve accepts connections until the listener closes. When it does,
// Serve closes every connection it accepted and waits for their
// goroutines to finish before returning, so no goroutine outlives the
// listener.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.draining {
		s.connMu.Unlock()
		return ErrBusy
	}
	s.listeners[l] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.listeners, l)
		s.connMu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			// A listener closed out from under us takes its connections
			// with it — but when Shutdown closed it, the drain owns the
			// connections: they are being nudged so each can hear a typed
			// draining reply before closing, and force-closing here would
			// race that reply away.
			if !s.isDraining() {
				s.closeConns()
			}
			s.wg.Wait()
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// readItem is one unit from a connection's reader goroutine to its
// executor: either a decoded request or the error that ended reading.
type readItem struct {
	req request
	err error
}

// ServeConn handles one connection until EOF, idle timeout, protocol
// error, or server shutdown. A connection the server cannot take on
// receives one typed refusal — busy when the registry is full, draining
// when Shutdown has begun — written as one frame by the same frame
// writer as every reply, and the connection is closed.
//
// The connection is served by two goroutines: this one executes
// requests and writes replies, while a reader goroutine keeps decoding
// ahead so up to pipelineDepth requests queue while earlier ones run.
// Replies are encoded into a write buffer that is flushed only when the
// request queue momentarily drains, so a pipelined burst is answered in
// a few large writes instead of one write per reply.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.register(conn) {
		refusal := response{Err: ErrBusy.Error(), Code: codeBusy, Retry: s.retryHintMS(nil)}
		if s.isDraining() {
			refusal = response{Err: ErrDraining.Error(), Code: codeDraining}
		} else {
			s.Obs.Counter("srvnet.backpressure.refused.conn").Inc()
		}
		bw := bufio.NewWriter(conn)
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		if _, err := frameResp(bw, nil, &refusal); err == nil {
			bw.Flush()
		}
		conn.Close()
		return
	}
	defer s.unregister(conn)
	// In mux mode the connection's namespace is chosen by its attach
	// handshake; detach runs when the connection leaves the session.
	fs := s.fs
	var detach func()
	defer func() {
		if detach != nil {
			detach()
		}
	}()

	reqCh := make(chan readItem, pipelineDepth)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	// connDead is set by the reader the moment the connection proves
	// gone (EOF, reset, idle timeout), strictly before the error item is
	// queued. Requests already sitting in reqCh behind that point belong
	// to a peer that can no longer hear the answer; the executor skips
	// them instead of burning namespace time on abandoned work.
	var connDead atomic.Bool
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(conn, wireBufSize)
		var req request
		for {
			// The idle deadline bounds the gap between frames, so it only
			// needs re-arming when the next read will actually touch the
			// socket; buffered frames are the peer being anything but idle.
			if br.Buffered() == 0 {
				conn.SetReadDeadline(time.Now().Add(s.idleTimeout()))
				// Shutdown nudges idle readers with an immediate deadline;
				// one that landed just before this re-arm was overwritten.
				if s.isDraining() {
					conn.SetReadDeadline(time.Now())
				}
			}
			if err := readReq(br, &req); err != nil {
				if connGone(err) {
					connDead.Store(true)
				}
				select {
				case reqCh <- readItem{err: err}:
				case <-stop:
				}
				return
			}
			select {
			case reqCh <- readItem{req: req}:
			case <-stop:
				return
			}
		}
	}()
	// Join the reader — and any parked readwait goroutines, which the
	// stop close unblocks — before unregistering so no goroutine
	// outlives the Serve loop's wait.
	var waiters sync.WaitGroup
	defer func() {
		close(stop)
		waiters.Wait()
		conn.Close()
		<-readerDone
	}()

	bw := bufio.NewWriterSize(conn, wireBufSize)
	// wmu serializes the write buffer between this executor and the
	// readwait waiter goroutines, which deliver their replies whenever
	// their events arrive.
	var wmu sync.Mutex
	noteWriteErr := s.noteWriteErr
	flushLocked := func() error {
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		err := bw.Flush()
		noteWriteErr(err)
		return err
	}
	flush := func() error {
		wmu.Lock()
		defer wmu.Unlock()
		return flushLocked()
	}
	// reply buffers one response, deferring the socket write while more
	// requests are already queued — their replies will share the flush —
	// unless final says the connection is about to close. out is the
	// executor's scratch reply and buf its frame buffer, both reused
	// across requests. The write buffer is bounded: framing a response
	// can spill it to the socket once it fills, so the write deadline is
	// armed before every frame, not just at flush — a stalled peer fails
	// the spill within the write timeout instead of hanging the executor
	// mid-frame forever.
	var out response
	var buf []byte
	reply := func(final bool) error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		var err error
		if buf, err = frameResp(bw, buf, &out); err != nil {
			noteWriteErr(err)
			return err
		}
		if !final && len(reqCh) > 0 {
			s.Obs.Counter("srvnet.reply.batched").Inc()
			return nil
		}
		return flushLocked()
	}

	// A readwait's path resolution must synchronize with whoever else
	// mutates the namespace (the wait itself parks outside any lock,
	// per the vfs.WaitDevice contract). A served fs that is already a
	// serialized view — the world export over the actor lock, a
	// mux-mode hub namespace — brings its own lock; only a bare fs
	// needs the executor's mutex wrapped around resolution. Replacing
	// an existing lock with s.mu here would strip the actor
	// serialization and race device registration.
	waitView := func(fs *vfs.FS) *vfs.FS { return fs }
	if s.hub == nil && fs != nil {
		sfs := fs.EnsureSerialized(&s.mu)
		waitView = func(*vfs.FS) *vfs.FS { return sfs }
	}
	waiterSlots := make(chan struct{}, maxConnWaiters)

	ra := &readahead{}
	for {
		item := <-reqCh
		if item.err != nil {
			flush()
			// EOF, a closed or timed-out connection: nothing to say —
			// unless the server is draining, in which case the timeout is
			// Shutdown's nudge and the client deserves to hear why its
			// connection is going away instead of a silent hangup.
			if connGone(item.err) {
				if s.isDraining() {
					out = response{Err: ErrDraining.Error(), Code: codeDraining}
					reply(true)
				}
				return
			}
			// A malformed frame deserves an explicit reply before the
			// connection closes: once a length or checksum is wrong the
			// frame boundaries are lost and the stream cannot be resynced,
			// but the client learns why instead of seeing a silent hangup.
			out = response{
				Err:  fmt.Sprintf("srvnet: malformed request: %v", item.err),
				Code: codeProto,
			}
			reply(true)
			return
		}
		req := item.req
		if connDead.Load() {
			// The peer is provably gone; requests it pipelined before
			// dying are abandoned work. Skip them instead of spending
			// executor and namespace time on replies nobody will read.
			s.Obs.Counter("srvnet.backpressure.abandoned").Inc()
			continue
		}
		if s.isDraining() {
			// A request decoded after Shutdown began gets the typed
			// refusal so the client degrades instead of redialing.
			out = response{Seq: req.Seq, Err: ErrDraining.Error(), Code: codeDraining}
			reply(true)
			return
		}
		if req.Op == opAttach {
			out = response{Seq: req.Seq}
			if s.hub == nil {
				out.Err = "srvnet: server does not multiplex sessions"
				out.Code = codeProto
			} else if nfs, ndetach, err := s.hub.AttachSession(req.Path); err != nil {
				out = s.errResp(err)
				out.Seq = req.Seq
			} else {
				if detach != nil {
					detach()
				}
				fs, detach = nfs, ndetach
				// The readahead slot belongs to the old namespace.
				*ra = readahead{}
			}
			if err := reply(false); err != nil {
				return
			}
			continue
		}
		if req.Op == opReadWait {
			// A long poll must not hold the executor: requests pipelined
			// behind it keep flowing while the waiter parks on the event
			// device. The reply is written under wmu whenever it is ready.
			if fs == nil {
				out = response{Seq: req.Seq, Err: ErrNoSession.Error(), Code: codeNoSess}
				if err := reply(false); err != nil {
					return
				}
				continue
			}
			wfs := waitView(fs)
			// Parking costs a goroutine, budgeted twice: per connection
			// (waiterSlots) and server-wide (acquireWaiter), so neither
			// one flooding client nor a thousand polite ones can grow
			// goroutines without bound.
			parked := false
			if s.acquireWaiter() {
				select {
				case waiterSlots <- struct{}{}:
					parked = true
				default:
					s.releaseWaiter()
				}
			}
			if parked {
				waiters.Add(1)
				go func(req request) {
					defer waiters.Done()
					defer s.releaseWaiter()
					defer func() { <-waiterSlots }()
					s.serveReadWait(req, wfs, stop, &wmu, bw, conn)
				}(req)
				// The parked waiter emits nothing until its event arrives,
				// so a reply batched behind this request (reply defers its
				// flush while more requests are queued) would sit in bw for
				// the whole poll. Flush it now unless another request is
				// already queued to pick it up.
				if len(reqCh) == 0 {
					if err := flush(); err != nil {
						return
					}
				}
			} else {
				// Waiter budget exhausted: degrade this subscriber to an
				// immediate poll instead of parking another goroutine.
				s.Obs.Counter("srvnet.backpressure.poll").Inc()
				resp := s.readWait(req, wfs, stop, time.Millisecond)
				out = resp
				out.Seq = req.Seq
				if err := reply(false); err != nil {
					return
				}
			}
			continue
		}
		out = s.handle(req, fs, ra)
		out.Seq = req.Seq
		if err := reply(false); err != nil {
			return
		}
	}
}

// connGone reports whether a read error means the peer is gone (EOF, a
// reset or closed connection, an idle timeout) rather than that it sent
// a malformed frame.
func connGone(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || (errors.As(err, &ne) && ne.Timeout())
}

// noteWriteErr classifies a failed response write: a timeout is the
// slow-reader policy firing — the peer stopped draining its socket, the
// write buffer filled, and the connection is disconnected with the
// deadline error rather than buffering without bound.
func (s *Server) noteWriteErr(err error) {
	if err == nil {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.Obs.Counter("srvnet.backpressure.disconnect").Inc()
	}
}

// readWait performs one bounded wait for events past req.Offset on
// req.Path. Cancellation (the connection tearing down) surfaces as the
// error the device reports on stop.
func (s *Server) readWait(req request, fs *vfs.FS, stop <-chan struct{}, timeout time.Duration) response {
	data, next, err := fs.ReadWait(req.Path, uint64(req.Offset), stop, timeout)
	if err != nil {
		return response{Err: err.Error(), Code: codeOf(err)}
	}
	// Gen carries the resume seq: an empty timeout reply still tells the
	// subscriber where to resume, so the next poll cannot re-deliver.
	return response{Data: data, Gen: next}
}

// serveReadWait runs one parked readwait to completion on its own
// goroutine and delivers the reply under the connection's write mutex.
// A connection already tearing down (stop closed) swallows the reply:
// the peer is gone, and bw is about to die with the conn.
func (s *Server) serveReadWait(req request, fs *vfs.FS, stop <-chan struct{}, wmu *sync.Mutex, bw *bufio.Writer, conn net.Conn) {
	d := time.Duration(req.Wait) * time.Millisecond
	if max := s.readWaitCap(); d <= 0 || d > max {
		d = max
	}
	out := s.readWait(req, fs, stop, d)
	out.Seq = req.Seq
	wmu.Lock()
	defer wmu.Unlock()
	select {
	case <-stop:
		return
	default:
	}
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
	if _, err := frameResp(bw, nil, &out); err != nil {
		s.noteWriteErr(err)
		return
	}
	s.noteWriteErr(bw.Flush())
}

// readWaitCap bounds one long poll: half the idle timeout (so the
// client's silence while parked can never trip the idle deadline — it
// re-polls at least twice per idle window) and never more than
// maxReadWait.
func (s *Server) readWaitCap() time.Duration {
	max := s.idleTimeout() / 2
	if max > maxReadWait {
		max = maxReadWait
	}
	return max
}

// Shutdown gracefully stops the server: it closes the listeners handed
// to Serve, stops accepting new connections, lets requests already in
// flight complete, and then closes their connections. If ctx expires
// first, remaining connections are force-closed and ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	// Nudge idle connections: an immediate read deadline makes their
	// blocked Decode return, while a request currently being handled
	// still gets its response written before the loop exits.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close without waiting: a handler blocked on the host's
		// namespace lock (Locker) must not deadlock Shutdown; it exits
		// when its next conn operation fails.
		s.closeConns()
		return ctx.Err()
	}
}

// raWindow is how much a readahead miss pulls in: enough that a client
// streaming a file sequentially revisits the namespace once per megabyte
// rather than once per 64 KiB chunk, small enough that a connection
// walking a gigabyte log holds one window, not the log.
const raWindow = 1 << 20

// readahead is a per-connection slot for sequential chunked reads: the
// first "readat" of a file reads a raWindow-sized range once (one
// namespace visit, one device handle); later chunks slice the window as
// long as the file's generation has not moved and the range is covered,
// sliding the window forward on the first chunk past it. Files without
// a generation cannot be validated and are re-read per chunk.
//
// Earlier versions snapshotted the entire file here, which was simpler
// but meant a "readat" of the head of a gigabyte file materialized the
// whole thing server-side — exactly what the paged text engine exists
// to avoid.
type readahead struct {
	path string
	gen  uint64
	base int64 // file offset of data[0]
	data []byte
	eof  bool // data reaches end of file
}

// readAt serves one chunk through the slot.
func (ra *readahead) readAt(fs *vfs.FS, reg *obs.Registry, path string, off, count int64) ([]byte, error) {
	if count <= 0 {
		count = defaultReadChunk
	}
	if off < 0 {
		off = 0
	}
	covered := off >= ra.base &&
		(off+count <= ra.base+int64(len(ra.data)) || ra.eof)
	if ra.path == path && ra.gen != 0 && covered && fs.Gen(path) == ra.gen {
		reg.Counter("srvnet.readahead.hit").Inc()
	} else {
		window := count
		if window < raWindow {
			window = raWindow
		}
		data, gen, err := fs.ReadFileAt(path, off, window)
		if err != nil {
			ra.path = ""
			return nil, err
		}
		ra.path, ra.gen, ra.base, ra.data = path, gen, off, data
		ra.eof = int64(len(data)) < window
		reg.Counter("srvnet.readahead.miss").Inc()
	}
	data := ra.data
	rel := off - ra.base
	if rel >= int64(len(data)) {
		return nil, nil
	}
	data = data[rel:]
	if count < int64(len(data)) {
		data = data[:count]
	}
	return data, nil
}

// handle performs one operation on fs. In single-namespace mode the
// server's mutex serializes all requests; in mux mode the per-session
// namespaces serialize themselves, so requests on different sessions
// proceed in parallel.
func (s *Server) handle(req request, fs *vfs.FS, ra *readahead) response {
	if s.hub == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if fs == nil {
		return response{Err: ErrNoSession.Error(), Code: codeNoSess}
	}
	switch req.Op {
	case opRead:
		data, err := fs.ReadFile(req.Path)
		if err != nil {
			return s.errResp(err)
		}
		return response{Data: data}
	case opReadAt:
		data, err := ra.readAt(fs, s.Obs, req.Path, req.Offset, req.Count)
		if err != nil {
			return s.errResp(err)
		}
		return response{Data: data}
	case opWrite:
		var err error
		if req.Append {
			err = fs.AppendFile(req.Path, req.Data)
		} else {
			err = fs.WriteFile(req.Path, req.Data)
		}
		if err != nil {
			return s.errResp(err)
		}
		return response{}
	case opReadDir:
		ents, err := fs.ReadDir(req.Path)
		if err != nil {
			return s.errResp(err)
		}
		return response{Entries: ents}
	case opStat:
		info, err := fs.Stat(req.Path)
		if err != nil {
			return s.errResp(err)
		}
		return response{Entries: []vfs.Info{info}}
	case opGlob:
		names := fs.Glob(req.Pattern)
		out := make([]vfs.Info, len(names))
		for i, name := range names {
			out[i].Name = name
		}
		return response{Entries: out}
	case opMkdir:
		if err := fs.MkdirAll(req.Path); err != nil {
			return s.errResp(err)
		}
		return response{}
	case opRemove:
		if err := fs.Remove(req.Path); err != nil {
			return s.errResp(err)
		}
		return response{}
	}
	return response{Err: fmt.Sprintf("srvnet: unknown op %v", req.Op), Code: codeProto}
}

// pendingCall is one in-flight request awaiting its reply. Exactly one
// result is ever delivered per issued call — by the reader on a matched
// reply, or by poisonAll/Close on failure — always after the call has
// been removed from the pending map, so the buffered send never blocks
// and a received call can be recycled.
type pendingCall struct {
	ch chan callResult
}

type callResult struct {
	resp response
	err  error
}

// callPool recycles pendingCall structs (and their reply channels)
// across round trips: one fewer allocation per RPC on the hot path.
var callPool = sync.Pool{New: func() any { return &pendingCall{ch: make(chan callResult, 1)} }}

// timerPool recycles round-trip timers: time.NewTimer costs several
// allocations, paid otherwise on every call.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and drains t so the next getTimer cannot see a stale
// firing.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Client is a remote namespace handle over one connection. Methods are
// safe for concurrent use, and — unlike a conventional RPC client — they
// do not serialize: any number of calls may be in flight at once. Each
// caller encodes its request under a write mutex and then parks on a
// per-call channel; a single reader goroutine decodes replies and hands
// each to its caller by sequence number, so replies may arrive in any
// order. Batch (batch.go) queues several operations into one buffered
// write for explicit pipelining.
type Client struct {
	conn net.Conn

	// wmu serializes request encoding; bw buffers frames so a Batch
	// goes out in one write, and buf is the reused frame scratch.
	wmu sync.Mutex
	bw  *bufio.Writer
	buf []byte

	br *bufio.Reader // owned by the reader goroutine

	pmu      sync.Mutex
	pending  map[uint64]*pendingCall
	seq      uint64
	closed   bool
	closeErr error // server refusal to report after poison; nil means ErrClientClosed

	// Timeout bounds each round trip (queueing, write, and reply). Zero
	// means DefaultRoundTrip — a dead server fails the call instead of
	// hanging it — and a negative value disables the bound for callers
	// owning exotic transports. A timed-out call poisons the
	// connection: the stream's state is unknown once a reply has been
	// abandoned.
	Timeout time.Duration

	// Obs, when set before first use, records a per-op round-trip
	// latency histogram (srvnet.read, srvnet.write, ...) and the
	// srvnet.inflight up/down counter. ReconnectingClient propagates
	// its own.
	Obs *obs.Registry
}

// Dial connects to a Server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection and starts its reader
// goroutine (it exits when the connection closes). Round trips are
// bounded by DefaultRoundTrip until Timeout says otherwise.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, wireBufSize),
		br:      bufio.NewReaderSize(conn, wireBufSize),
		pending: map[uint64]*pendingCall{},
	}
	go c.reader()
	return c
}

// timeout resolves the effective round-trip bound.
func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	if c.Timeout < 0 {
		return 0
	}
	return DefaultRoundTrip
}

// closedNow reports whether the connection has been closed or poisoned.
func (c *Client) closedNow() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.closed
}

// Close closes the connection out of band: it does not wait for
// in-flight round trips, so a Close behind a hung peer still returns
// promptly. Pending calls fail fast with ErrClientClosed as the closed
// connection unblocks them, and the reader goroutine exits.
func (c *Client) Close() error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return nil
	}
	c.closed = true
	calls := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.pmu.Unlock()
	err := c.conn.Close()
	for _, call := range calls {
		call.ch <- callResult{err: ErrClientClosed}
	}
	return err
}

// poisonAll ends the connection after a transport- or protocol-level
// failure: every pending call fails with err, and — when the failure
// was a typed server refusal (busy, draining) — closeErr is recorded so
// later calls report the refusal instead of a bare ErrClientClosed.
func (c *Client) poisonAll(err, closeErr error) {
	c.pmu.Lock()
	if !c.closed {
		c.closed = true
		c.closeErr = closeErr
		c.conn.Close()
	}
	calls := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.pmu.Unlock()
	for _, call := range calls {
		call.ch <- callResult{err: err}
	}
}

// reader is the connection's single reply loop: it decodes responses
// and hands each to the caller parked on its sequence number. A reply
// that matches no pending call is a protocol violation (the old
// one-reply-per-round-trip "out of sequence" condition, generalized to
// pipelining) and poisons the connection; a Seq-0 reply is the server
// refusing the connection itself and is delivered to every caller.
func (c *Client) reader() {
	var resp response
	for {
		if err := readResp(c.br, &resp); err != nil {
			c.poisonAll(fmt.Errorf("srvnet: receive: %w", err), nil)
			return
		}
		if resp.Seq == 0 {
			var err error
			if resp.Err != "" {
				err = errFromWire(resp.Err, resp.Code, resp.Retry)
			} else {
				err = fmt.Errorf("%w: unattributable reply", ErrProto)
			}
			c.poisonAll(err, err)
			return
		}
		c.pmu.Lock()
		call, ok := c.pending[resp.Seq]
		if ok {
			delete(c.pending, resp.Seq)
		}
		c.pmu.Unlock()
		if !ok {
			c.poisonAll(fmt.Errorf("%w: response out of sequence (unexpected seq %d)",
				ErrProto, resp.Seq), nil)
			return
		}
		call.ch <- callResult{resp: resp}
	}
}

// start registers a call, assigns its sequence number, and encodes the
// request — flushing it onto the wire unless the caller is batching.
// On success the caller owns the returned pendingCall and must collect
// its result through wait.
func (c *Client) start(req *request, flush bool) (*pendingCall, error) {
	call := callPool.Get().(*pendingCall)
	c.wmu.Lock()
	c.pmu.Lock()
	if c.closed {
		err := c.closeErr
		c.pmu.Unlock()
		c.wmu.Unlock()
		callPool.Put(call)
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.seq++
	req.Seq = c.seq
	c.pending[req.Seq] = call
	c.pmu.Unlock()
	c.Obs.Counter("srvnet.inflight").Add(1)
	if flush {
		// Batched frames skip the per-call deadline: the socket write
		// happens at Batch.Flush (which sets it), and a write that hangs
		// anyway is bounded by wait's timer poisoning the connection.
		if to := c.timeout(); to > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(to))
		}
	}
	var err error
	c.buf, err = frameReq(c.bw, c.buf, req)
	if err == nil && flush {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("srvnet: send: %w", err)
		c.poisonAll(err, nil)
		// poisonAll — ours, or the reader's on a typed refusal such as
		// draining, which closed the connection under this write — has
		// delivered the call's outcome; the refusal names the real cause.
		if res := <-call.ch; res.err != nil {
			err = res.err
		}
		callPool.Put(call)
		c.Obs.Counter("srvnet.inflight").Add(-1)
		return nil, err
	}
	return call, nil
}

// wait collects the reply for a call started by start. A round trip
// that outlives the timeout poisons the connection — an abandoned reply
// leaves the stream state unknown — and fails every other in-flight
// call with it.
func (c *Client) wait(op string, call *pendingCall) (response, error) {
	return c.waitWithin(op, call, c.timeout())
}

// waitWithin is wait with an explicit round-trip bound: long polls
// (ReadWait) stretch the default by their wait budget, so a legitimate
// empty poll is not mistaken for a dead peer.
func (c *Client) waitWithin(op string, call *pendingCall, to time.Duration) (response, error) {
	defer c.Obs.Counter("srvnet.inflight").Add(-1)
	var res callResult
	select {
	case res = <-call.ch:
		// Pipelined common case: the reply landed before the caller got
		// here, so no timer is armed at all.
	default:
		if to <= 0 {
			res = <-call.ch
			break
		}
		timer := getTimer(to)
		select {
		case res = <-call.ch:
			putTimer(timer)
		case <-timer.C:
			timerPool.Put(timer) // fired and drained: ready for reuse
			err := fmt.Errorf("srvnet: %s: no reply within %v (peer dead or stalled)", op, to)
			c.poisonAll(err, nil)
			// The poison (ours, or a concurrent one that beat us to the
			// pending map) delivered a result; drain it so the call can
			// be recycled.
			<-call.ch
			callPool.Put(call)
			return response{}, err
		}
	}
	resp, err := res.resp, res.err
	callPool.Put(call)
	if err != nil {
		return response{}, err
	}
	if resp.Err != "" {
		return resp, errFromWire(resp.Err, resp.Code, resp.Retry)
	}
	return resp, nil
}

// rpc performs one full round trip: pipelining-aware under the hood,
// but synchronous for the caller.
func (c *Client) rpc(req request) (response, error) {
	if c.Obs != nil {
		// Failed round trips are observed too: a latency histogram that
		// hides the slow failures would understate what remote users pay.
		defer func(t0 time.Time, op string) {
			c.Obs.Histogram("srvnet." + op).Observe(time.Since(t0))
		}(time.Now(), req.Op.String())
	}
	call, err := c.start(&req, true)
	if err != nil {
		return response{}, err
	}
	return c.wait(req.Op.String(), call)
}

// Attach selects the session this connection's subsequent operations
// apply to, on a server that multiplexes sessions (NewMuxServer). The
// server spawns the session on first attach; re-attaching switches the
// connection to another session.
func (c *Client) Attach(session string) error {
	_, err := c.rpc(request{Op: opAttach, Path: session})
	return err
}

// ReadFile reads a remote file.
func (c *Client) ReadFile(path string) ([]byte, error) {
	resp, err := c.rpc(request{Op: opRead, Path: path})
	return resp.Data, err
}

// ReadFileAt reads up to count bytes of a remote file from byte offset
// off (count <= 0 asks for the server's default chunk). A short or
// empty result means end of file. Sequential chunks are served from the
// server's per-connection readahead slot: the file is snapshotted once
// and sliced while its generation holds, so walking a large body costs
// one namespace visit, not one per chunk.
func (c *Client) ReadFileAt(path string, off, count int64) ([]byte, error) {
	resp, err := c.rpc(request{Op: opReadAt, Path: path, Offset: off, Count: count})
	return resp.Data, err
}

// ReadWait long-polls an event file: it blocks server-side until events
// past seq since exist on path (0 = from now), the wait budget expires,
// or the server's own cap cuts the poll short. It returns the event
// lines and the seq to resume from; an empty data with a nil error is
// the normal empty poll, and resuming from the returned seq guarantees
// no event is delivered twice or skipped (a bus overflow surfaces as a
// "gap" event line, not a silent loss). On a plain file the server
// degrades the call to an immediate read, so ReadWait is safe to point
// at any path. wait <= 0 asks for the server's maximum poll.
//
// The round trip is bounded by the client timeout plus the wait budget
// — a long poll is the one call where a silent server is healthy.
func (c *Client) ReadWait(path string, since uint64, wait time.Duration) (data []byte, next uint64, err error) {
	if wait < 0 {
		wait = 0
	}
	req := request{Op: opReadWait, Path: path, Offset: int64(since), Wait: int64(wait / time.Millisecond)}
	if c.Obs != nil {
		defer func(t0 time.Time) {
			c.Obs.Histogram("srvnet.readwait").Observe(time.Since(t0))
		}(time.Now())
	}
	call, err := c.start(&req, true)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.waitWithin("readwait", call, c.readWaitBudget(wait))
	if err != nil {
		return nil, 0, err
	}
	return resp.Data, resp.Gen, nil
}

// readWaitBudget bounds one readwait round trip client-side: the base
// timeout plus the server's park. A wait <= 0 delegates the park length
// to the server, whose cap (readWaitCap) can reach maxReadWait — the
// budget must cover that whole cap, because the server's clock starts
// at receipt, strictly after the client's: budgeting only the base
// timeout would let a maximum-length empty poll on an idle session
// outlive the client timer and poison the connection.
func (c *Client) readWaitBudget(wait time.Duration) time.Duration {
	to := c.timeout()
	if to <= 0 {
		return 0
	}
	if wait <= 0 {
		wait = maxReadWait
	}
	return to + wait
}

// WriteFile writes (replacing) a remote file.
func (c *Client) WriteFile(path string, data []byte) error {
	_, err := c.rpc(request{Op: opWrite, Path: path, Data: data})
	return err
}

// AppendFile appends to a remote file.
func (c *Client) AppendFile(path string, data []byte) error {
	_, err := c.rpc(request{Op: opWrite, Path: path, Data: data, Append: true})
	return err
}

// ReadDir lists a remote directory.
func (c *Client) ReadDir(path string) ([]vfs.Info, error) {
	resp, err := c.rpc(request{Op: opReadDir, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Stat describes a remote file.
func (c *Client) Stat(path string) (vfs.Info, error) {
	resp, err := c.rpc(request{Op: opStat, Path: path})
	if err != nil {
		return vfs.Info{}, err
	}
	return statInfo(resp)
}

// statInfo unpacks a stat reply, which carries exactly one entry.
func statInfo(resp response) (vfs.Info, error) {
	if len(resp.Entries) != 1 {
		return vfs.Info{}, fmt.Errorf("%w: stat reply with %d entries", ErrProto, len(resp.Entries))
	}
	return resp.Entries[0], nil
}

// Glob expands a pattern remotely.
func (c *Client) Glob(pattern string) ([]string, error) {
	resp, err := c.rpc(request{Op: opGlob, Pattern: pattern})
	var names []string
	for _, e := range resp.Entries {
		names = append(names, e.Name)
	}
	return names, err
}

// MkdirAll creates a remote directory tree.
func (c *Client) MkdirAll(path string) error {
	_, err := c.rpc(request{Op: opMkdir, Path: path})
	return err
}

// Remove deletes a remote file or empty directory.
func (c *Client) Remove(path string) error {
	_, err := c.rpc(request{Op: opRemove, Path: path})
	return err
}
