package srvnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// ErrDegraded is returned once a retry budget is spent without reaching
// the server: the remote namespace is present but unusable, and the
// caller should degrade (report, fall back) rather than hang. Test with
// errors.Is; the wrapped message carries the last transport error.
var ErrDegraded = errors.New("srvnet: remote namespace degraded")

// State is the coarse health of a ReconnectingClient, reported through
// OnStateChange so a UI can surface degradation (help shows it in the
// Errors window) instead of freezing on a dead CPU server.
type State int

const (
	// StateConnected: the last operation reached the server.
	StateConnected State = iota
	// StateRetrying: a transport failure occurred; redials are in
	// progress.
	StateRetrying
	// StateDegraded: a retry budget was spent; operations are failing
	// with ErrDegraded.
	StateDegraded
)

// String names the state for reports.
func (s State) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateRetrying:
		return "retrying"
	case StateDegraded:
		return "degraded"
	}
	return "unknown"
}

// ReconnectingClient is a fault-tolerant remote namespace handle: a
// Client that redials on transport failure. Idempotent operations
// (ReadFile, ReadDir, Stat, Glob) retry with capped exponential backoff
// and deterministic jitter until the budget is spent, then return
// ErrDegraded. Mutating operations (WriteFile, AppendFile, MkdirAll,
// Remove) never retry after the request may have been sent — the
// protocol cannot distinguish a lost request from a lost reply — but do
// retry dial failures, where nothing has been sent.
//
// The zero configuration works against Addr; all fields must be set
// before the first operation.
type ReconnectingClient struct {
	// Addr is the server address for the default dialer.
	Addr string
	// DialFunc overrides how connections are made (tests inject
	// faultnet-wrapped connections here). Nil means Dial(Addr).
	DialFunc func() (*Client, error)
	// OpTimeout bounds each attempt's round trip. Zero means
	// DefaultWriteTimeout.
	OpTimeout time.Duration
	// MaxRetries is how many times an idempotent operation is retried
	// beyond the first attempt. Zero means 3; negative means none.
	MaxRetries int
	// BackoffBase and BackoffCap shape the exponential backoff between
	// retries: sleep i is min(cap, base<<(i-1)) halved plus jitter.
	// Zeroes mean 10ms and 1s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BusyBudget bounds the total time one operation spends waiting out
	// busy refusals (the server's retry-after hints). Busy waits are
	// charged here, not against MaxRetries: a server protecting itself
	// with admission control is alive, so the refusals must not count
	// toward the degradation threshold. Zero means 2s; negative
	// disables busy waiting (refusals degrade immediately).
	BusyBudget time.Duration
	// Seed makes the jitter deterministic. Zero means 1.
	Seed int64
	// Session, when set, names the session to attach to after every
	// dial: against a multiplexing server (NewMuxServer), a redial
	// transparently re-attaches, so reattach-after-disconnect needs no
	// caller involvement.
	Session string
	// OnStateChange, when set, is called on every health transition
	// with the state entered and the error that caused it (nil for
	// StateConnected). Called from the operation's goroutine.
	OnStateChange func(State, error)
	// Obs, when set before the first operation, records retry counts
	// (srvnet.retries), redials (srvnet.redials), degradation entries
	// (srvnet.degraded), a trace event per health transition, and —
	// propagated into each dialed Client — per-RPC latency histograms.
	Obs *obs.Registry

	mu     sync.Mutex
	c      *Client
	rng    *rand.Rand
	state  State
	dialed bool // a connection has been established at least once
	closed bool // Close was called; operations fail with ErrClientClosed
}

// NewReconnectingClient returns a client for the server at addr with
// default timeouts, retries, and backoff.
func NewReconnectingClient(addr string) *ReconnectingClient {
	return &ReconnectingClient{Addr: addr}
}

func (r *ReconnectingClient) opTimeout() time.Duration {
	if r.OpTimeout > 0 {
		return r.OpTimeout
	}
	return DefaultWriteTimeout
}

func (r *ReconnectingClient) retries() int {
	if r.MaxRetries > 0 {
		return r.MaxRetries
	}
	if r.MaxRetries < 0 {
		return 0
	}
	return 3
}

// State reports the current health.
func (r *ReconnectingClient) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// setState records a health transition and notifies the observer.
func (r *ReconnectingClient) setState(s State, err error) {
	r.mu.Lock()
	changed := r.state != s
	r.state = s
	notify := r.OnStateChange
	r.mu.Unlock()
	if changed {
		if s == StateDegraded {
			r.Obs.Counter("srvnet.degraded").Inc()
		}
		r.Obs.Event("srvnet.state", s.String())
		if notify != nil {
			notify(s, err)
		}
	}
}

// client returns the live connection, dialing if needed.
func (r *ReconnectingClient) client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClientClosed
	}
	if r.c != nil {
		return r.c, nil
	}
	dial := r.DialFunc
	if dial == nil {
		addr := r.Addr
		dial = func() (*Client, error) { return Dial(addr) }
	}
	c, err := dial()
	if err != nil {
		return nil, err
	}
	c.Timeout = r.opTimeout()
	c.Obs = r.Obs
	if r.Session != "" {
		if err := c.Attach(r.Session); err != nil {
			c.Close()
			return nil, fmt.Errorf("srvnet: attach %q: %w", r.Session, err)
		}
	}
	if r.dialed {
		r.Obs.Counter("srvnet.redials").Inc()
	}
	r.dialed = true
	r.c = c
	return c, nil
}

// drop discards a connection after a transport failure, so the next
// attempt redials.
func (r *ReconnectingClient) drop(c *Client) {
	c.Close()
	r.mu.Lock()
	if r.c == c {
		r.c = nil
	}
	r.mu.Unlock()
}

// jitter returns a deterministic random duration in [0, max).
func (r *ReconnectingClient) jitter(max int64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		r.rng = rand.New(rand.NewSource(seed))
	}
	return time.Duration(r.rng.Int63n(max))
}

// backoff returns the i'th retry delay (i counts from 1): capped
// exponential with deterministic jitter in the upper half.
func (r *ReconnectingClient) backoff(i int) time.Duration {
	base := r.BackoffBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	cap := r.BackoffCap
	if cap <= 0 {
		cap = time.Second
	}
	d := base
	for k := 1; k < i; k++ {
		d *= 2
		if d >= cap {
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	return d/2 + r.jitter(int64(d)/2+1)
}

// busyBudget resolves the BusyBudget default.
func (r *ReconnectingClient) busyBudget() time.Duration {
	if r.BusyBudget > 0 {
		return r.BusyBudget
	}
	if r.BusyBudget < 0 {
		return 0
	}
	return 2 * time.Second
}

// busyWait honors one busy refusal: sleep the server's retry-after
// hint (the generic backoff base when it sent none) plus jitter,
// charging the wait against the busy budget. It reports false once the
// budget cannot cover the wait — time to degrade.
func (r *ReconnectingClient) busyWait(err error, spent *time.Duration) bool {
	hint, ok := vfs.RetryAfter(err)
	if !ok {
		hint = r.BackoffBase
		if hint <= 0 {
			hint = 10 * time.Millisecond
		}
	}
	d := hint + r.jitter(int64(hint)/2+1)
	if *spent+d > r.busyBudget() {
		return false
	}
	*spent += d
	r.Obs.Counter("srvnet.busywait").Inc()
	time.Sleep(d)
	return true
}

// retryable reports whether err is worth a redial: transport failures
// and peer-reported protocol violations are; errors the server actually
// answered with (vfs sentinels and other namespace errors) are not —
// the retry would just repeat them. Busy refusals never reach here:
// do intercepts them first and waits the server's hint instead.
func retryable(err error) bool {
	if errors.Is(err, ErrProto) {
		return true
	}
	var we *wireError
	if errors.As(err, &we) {
		return false // the server answered; retrying changes nothing
	}
	if vfs.IsPermanent(err) {
		return false
	}
	return true
}

// do runs call with the retry policy. Idempotent operations retry any
// retryable failure; mutating ones only dial failures — and busy
// refusals, which are safe for both: a refused request was answered,
// not applied, so waiting out the server's retry-after hint and
// resending risks no double write. Busy waits draw on BusyBudget, not
// the attempt counter: "server protecting itself" must not trip the
// "server gone" degradation threshold.
func (r *ReconnectingClient) do(idempotent bool, call func(*Client) error) error {
	attempts := r.retries() + 1
	var lastErr error
	var busySpent time.Duration
	degradeBusy := func(err error) error {
		err = fmt.Errorf("%w: busy past retry budget: %w", ErrDegraded, err)
		r.setState(StateDegraded, err)
		return err
	}
	for i := 0; i < attempts; {
		c, err := r.client()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				// Closed deliberately: redialing would resurrect a client
				// the caller already tore down.
				return err
			}
			if errors.Is(err, ErrDraining) {
				// The server is deliberately going away: redialing would
				// just storm a host trying to shut down. Degrade now.
				err = fmt.Errorf("%w: %w", ErrDegraded, err)
				r.setState(StateDegraded, err)
				return err
			}
			if errors.Is(err, vfs.ErrBusy) {
				// Refused at the door (conn table or session budget
				// full): the server is alive, wait its hint out.
				lastErr = err
				r.setState(StateRetrying, err)
				if !r.busyWait(err, &busySpent) {
					return degradeBusy(err)
				}
				continue
			}
			// Dial failure: nothing was sent, always retryable.
			lastErr = err
			r.setState(StateRetrying, err)
			i++
			if i < attempts {
				r.Obs.Counter("srvnet.retries").Inc()
				time.Sleep(r.backoff(i))
			}
			continue
		}
		err = call(c)
		if err == nil {
			r.setState(StateConnected, nil)
			return nil
		}
		if errors.Is(err, ErrDraining) {
			r.drop(c)
			err = fmt.Errorf("%w: %w", ErrDegraded, err)
			r.setState(StateDegraded, err)
			return err
		}
		if errors.Is(err, vfs.ErrBusy) {
			// An operation refused by a budget. A per-op refusal leaves
			// the connection healthy; a conn-level one (Seq-0 refusal)
			// poisoned it, so drop it and let the wait redial.
			if c.closedNow() {
				r.drop(c)
			}
			lastErr = err
			r.setState(StateRetrying, err)
			if !r.busyWait(err, &busySpent) {
				return degradeBusy(err)
			}
			continue
		}
		if !retryable(err) {
			// The server answered: the connection is healthy, the
			// operation is just wrong.
			r.setState(StateConnected, nil)
			return err
		}
		r.drop(c)
		lastErr = err
		if !idempotent {
			// The request may have been applied; surface the ambiguity
			// rather than risk a double write.
			r.setState(StateRetrying, err)
			return fmt.Errorf("srvnet: request outcome unknown (connection lost): %w", err)
		}
		r.setState(StateRetrying, err)
		i++
		if i < attempts {
			r.Obs.Counter("srvnet.retries").Inc()
			time.Sleep(r.backoff(i))
		}
	}
	err := fmt.Errorf("%w (after %d attempts): %v", ErrDegraded, attempts, lastErr)
	r.setState(StateDegraded, err)
	return err
}

// Close closes the underlying connection, if any, and marks the client
// closed: operations issued afterward fail with ErrClientClosed instead
// of silently redialing a client the caller tore down.
func (r *ReconnectingClient) Close() error {
	r.mu.Lock()
	c := r.c
	r.c = nil
	r.closed = true
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// ReadFiles reads several remote files in one pipelined batch: all the
// requests go out in a single write, then the replies are collected.
// The result is positional; the first failure is returned after every
// reply has been drained, so the connection stays usable.
func (r *ReconnectingClient) ReadFiles(paths []string) (datas [][]byte, err error) {
	err = r.do(true, func(c *Client) error {
		b := c.NewBatch()
		futs := make([]*Future, len(paths))
		for i, p := range paths {
			futs[i] = b.ReadFile(p)
		}
		if err := b.Flush(); err != nil {
			return err
		}
		out := make([][]byte, len(paths))
		var first error
		for i, f := range futs {
			data, ferr := f.Data()
			if ferr != nil && first == nil {
				first = ferr
			}
			out[i] = data
		}
		if first != nil {
			return first
		}
		datas = out
		return nil
	})
	return datas, err
}

// ReadFile reads a remote file, retrying transport failures.
func (r *ReconnectingClient) ReadFile(path string) (data []byte, err error) {
	err = r.do(true, func(c *Client) error {
		data, err = c.ReadFile(path)
		return err
	})
	return data, err
}

// ReadDir lists a remote directory, retrying transport failures.
func (r *ReconnectingClient) ReadDir(path string) (ents []vfs.Info, err error) {
	err = r.do(true, func(c *Client) error {
		ents, err = c.ReadDir(path)
		return err
	})
	return ents, err
}

// Stat describes a remote file, retrying transport failures.
func (r *ReconnectingClient) Stat(path string) (info vfs.Info, err error) {
	err = r.do(true, func(c *Client) error {
		info, err = c.Stat(path)
		return err
	})
	return info, err
}

// ReadWait long-polls an event file (see Client.ReadWait), retrying
// transport failures. It is idempotent by construction — the resume seq
// means a retried poll re-delivers nothing it already returned — so a
// subscriber parked across a drop/redial resumes from its last seq with
// no events duplicated and any truly lost span surfaced as a "gap"
// event line.
func (r *ReconnectingClient) ReadWait(path string, since uint64, wait time.Duration) (data []byte, next uint64, err error) {
	err = r.do(true, func(c *Client) error {
		data, next, err = c.ReadWait(path, since, wait)
		return err
	})
	return data, next, err
}

// Glob expands a pattern remotely, retrying transport failures.
func (r *ReconnectingClient) Glob(pattern string) (names []string, err error) {
	err = r.do(true, func(c *Client) error {
		names, err = c.Glob(pattern)
		return err
	})
	return names, err
}

// WriteFile writes a remote file. Only dial failures are retried.
func (r *ReconnectingClient) WriteFile(path string, data []byte) error {
	return r.do(false, func(c *Client) error { return c.WriteFile(path, data) })
}

// AppendFile appends to a remote file. Only dial failures are retried.
func (r *ReconnectingClient) AppendFile(path string, data []byte) error {
	return r.do(false, func(c *Client) error { return c.AppendFile(path, data) })
}

// MkdirAll creates a remote directory tree. Only dial failures are
// retried.
func (r *ReconnectingClient) MkdirAll(path string) error {
	return r.do(false, func(c *Client) error { return c.MkdirAll(path) })
}

// Remove deletes a remote file or empty directory. Only dial failures
// are retried.
func (r *ReconnectingClient) Remove(path string) error {
	return r.do(false, func(c *Client) error { return c.Remove(path) })
}
