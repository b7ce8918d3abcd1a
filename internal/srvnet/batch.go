package srvnet

import (
	"sync"
	"time"

	"repro/internal/vfs"
)

// Batch queues several operations and pushes them onto the wire in a
// single buffered write, turning N round trips into one send followed
// by N (possibly coalesced) replies — explicit pipelining for callers
// that know their next few operations up front, like the repl's fetch
// command or ReconnectingClient.ReadFiles.
//
// Queue operations, call Flush, then collect each Future. Collecting a
// Future before Flush flushes implicitly. A Batch is not safe for
// concurrent use; the Futures it returns are collected independently.
type Batch struct {
	c       *Client
	mu      sync.Mutex
	queued  []*Future
	flushed bool
}

// Future is one queued operation's pending result. Exactly one of the
// typed accessors should be called, once, matching the operation.
type Future struct {
	b    *Batch
	op   op
	call *pendingCall // nil when the request failed at queue time
	resp response
	err  error
	done bool
}

// NewBatch starts an empty pipeline on the client.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// queue registers and encodes one request without flushing.
func (b *Batch) queue(req request) *Future {
	f := &Future{b: b, op: req.Op}
	call, err := b.c.start(&req, false)
	if err != nil {
		f.err, f.done = err, true
		return f
	}
	f.call = call
	b.mu.Lock()
	b.queued = append(b.queued, f)
	b.flushed = false
	b.mu.Unlock()
	return f
}

// ReadFile queues a read.
func (b *Batch) ReadFile(path string) *Future {
	return b.queue(request{Op: opRead, Path: path})
}

// Stat queues a stat.
func (b *Batch) Stat(path string) *Future {
	return b.queue(request{Op: opStat, Path: path})
}

// WriteFile queues a write.
func (b *Batch) WriteFile(path string, data []byte) *Future {
	return b.queue(request{Op: opWrite, Path: path, Data: data})
}

// AppendFile queues an append.
func (b *Batch) AppendFile(path string, data []byte) *Future {
	return b.queue(request{Op: opWrite, Path: path, Data: data, Append: true})
}

// Flush pushes every queued request onto the wire in one write.
func (b *Batch) Flush() error {
	b.mu.Lock()
	if b.flushed {
		b.mu.Unlock()
		return nil
	}
	b.flushed = true
	b.mu.Unlock()
	b.c.Obs.Counter("srvnet.batch.flushes").Inc()
	b.c.wmu.Lock()
	if to := b.c.timeout(); to > 0 {
		b.c.conn.SetWriteDeadline(time.Now().Add(to))
	}
	err := b.c.bw.Flush()
	b.c.wmu.Unlock()
	return err
}

// resolve collects the wire reply, flushing the batch first if the
// caller never did.
func (f *Future) resolve() {
	if f.done {
		return
	}
	f.done = true
	// A flush error reaches the caller through the call itself: the
	// broken connection fails it, by poison or by wait's timeout.
	_ = f.b.Flush()
	f.resp, f.err = f.b.c.wait(f.op.String(), f.call)
}

// Err waits for the operation and returns its error; the accessor for
// queued writes and appends.
func (f *Future) Err() error {
	f.resolve()
	return f.err
}

// Data waits for a queued read and returns its contents.
func (f *Future) Data() ([]byte, error) {
	f.resolve()
	return f.resp.Data, f.err
}

// Info waits for a queued stat and returns the file's Info.
func (f *Future) Info() (vfs.Info, error) {
	f.resolve()
	if f.err != nil {
		return vfs.Info{}, f.err
	}
	return statInfo(f.resp)
}
