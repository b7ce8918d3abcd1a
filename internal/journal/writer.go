package journal

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Policy selects when the Writer calls fsync.
type Policy int

const (
	// SyncBatch fsyncs once per group-committed batch (the default):
	// bounded data loss (the last batch) at interactive cost.
	SyncBatch Policy = iota
	// SyncAlways fsyncs after every record. Maximum durability.
	SyncAlways
	// SyncNever leaves syncing to the operating system.
	SyncNever
)

// ParsePolicy maps the -journal-fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want batch, always, or never)", s)
}

// Config parameterizes a Writer.
type Config struct {
	Fsync Policy
	// QueueSize bounds the append queue; 0 means a default. Appends
	// beyond a full queue block briefly rather than drop.
	QueueSize int
}

// item is one unit of work for the background writer goroutine.
type item struct {
	rec  []byte // framed record to append, if non-nil
	ckpt []byte // checkpoint payload, if non-nil
	gen  uint64 // checkpoint generation
	done chan error
	quit bool
}

// Writer is the group-commit journal appender. Append and Checkpoint
// enqueue and return immediately; a single goroutine drains the queue
// in batches, writes, and fsyncs per the configured Policy. After the
// first write or sync error the Writer goes degraded: it keeps
// draining (counting drops) so the session stays interactive, and
// reports the error once via OnError.
type Writer struct {
	fsys Fsys
	cfg  Config

	// OnError, if set before the first Append, is called once from the
	// writer goroutine when the journal goes degraded.
	OnError func(error)

	mu     sync.Mutex // orders gen assignment with queue insertion
	gen    uint64     // last assigned generation
	closed bool
	crash  int // crash-report sequence

	// errMu guards failed, and nothing else. It must stay separate
	// from mu: an Append can block on a full queue while holding mu,
	// and the drain goroutine reads failed on its way to freeing queue
	// slots — sharing one lock would deadlock the pair.
	errMu  sync.Mutex
	failed error

	ch   chan item
	done chan struct{}

	// Writer-goroutine state.
	seg     File
	segBase uint64
	base    uint64 // generation of the last durable checkpoint

	// Observability handles; nil-safe when unset.
	obsAppends *obs.Counter
	obsBytes   *obs.Counter
	obsBatches *obs.Counter
	obsFsyncs  *obs.Counter
	obsCkpts   *obs.Counter
	obsDrops   *obs.Counter
	obsErrors  *obs.Counter
	obsBatchH  *obs.Histogram
}

// Open creates a Writer over an existing (possibly non-empty) journal
// directory. Generation numbering continues from the highest number
// found anywhere in the directory — scanned leniently, so that opening
// after a crash-with-torn-tail still works — which keeps generations
// monotonic across restarts and lets recovery trust "greater gen wins".
func Open(fsys Fsys, cfg Config) (*Writer, error) {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	w := &Writer{
		fsys: fsys,
		cfg:  cfg,
		ch:   make(chan item, cfg.QueueSize),
		done: make(chan struct{}),
	}
	maxGen, err := scanMaxGen(fsys)
	if err != nil {
		return nil, err
	}
	w.gen = maxGen
	w.base = maxGen
	go w.run()
	return w, nil
}

// SetObs installs observability counters under the journal.* prefix.
func (w *Writer) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	w.obsAppends = r.Counter("journal.appends")
	w.obsBytes = r.Counter("journal.bytes")
	w.obsBatches = r.Counter("journal.batches")
	w.obsFsyncs = r.Counter("journal.fsyncs")
	w.obsCkpts = r.Counter("journal.checkpoints")
	w.obsDrops = r.Counter("journal.drops")
	w.obsErrors = r.Counter("journal.errors")
	w.obsBatchH = r.Histogram("journal.batch")
}

// Append stamps op with the next generation and enqueues it. It never
// blocks on disk; it can block briefly if the queue is full (the
// writer goroutine is strictly faster than interactive input in
// practice). Returns the assigned generation.
func (w *Writer) Append(op *Op) uint64 {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.obsDrops.Inc()
		return 0
	}
	w.gen++
	op.Gen = w.gen
	rec := EncodeOp(op)
	w.ch <- item{rec: rec}
	g := op.Gen
	w.mu.Unlock()
	w.obsAppends.Inc()
	w.obsBytes.Add(int64(len(rec)))
	return g
}

// Checkpoint enqueues a full-session snapshot. When the writer
// goroutine reaches it, every record appended before this call has
// been written; the snapshot is written atomically (tmp+rename) and
// all older segments are deleted. Asynchronous, like Append.
func (w *Writer) Checkpoint(payload []byte) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	g := w.gen
	w.ch <- item{ckpt: payload, gen: g}
	w.mu.Unlock()
}

// Flush blocks until everything enqueued so far is written (and synced
// under SyncBatch/SyncAlways), returning the degraded error if any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	it := item{done: make(chan error, 1)}
	w.ch <- it
	w.mu.Unlock()
	return <-it.done
}

// Close flushes, stops the writer goroutine, and closes the segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	it := item{done: make(chan error, 1), quit: true}
	w.ch <- it
	w.mu.Unlock()
	err := <-it.done
	<-w.done
	return err
}

// Err reports the degraded-state error, nil while healthy.
func (w *Writer) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.failed
}

// WriteCrashReport writes a numbered crash-NNN.txt next to the journal
// and returns its name. Called on the panic-recovery path, so it is
// deliberately direct (not queued) and swallows nothing.
func (w *Writer) WriteCrashReport(report []byte) (string, error) {
	w.mu.Lock()
	w.crash++
	name := fmt.Sprintf("crash-%03d.txt", w.crash)
	w.mu.Unlock()
	f, err := w.fsys.Create(name)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(report); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}

// maxBatchBuf caps the capacity of the batch buffer run keeps between
// batches: a burst of large records may grow it further, but the grown
// buffer is dropped after its batch instead of being held for good.
const maxBatchBuf = 1 << 20

// run is the writer goroutine: drain the queue, group-commit batches.
func (w *Writer) run() {
	defer close(w.done)
	var buf []byte // reused across batches
	for it := range w.ch {
		batch := []item{it}
		// Group commit: take everything already queued.
	drain:
		for {
			select {
			case more := <-w.ch:
				batch = append(batch, more)
			default:
				break drain
			}
		}
		t0 := time.Now()
		flushBuf := func() {
			if len(buf) == 0 {
				return
			}
			w.writeBatch(buf)
			buf = buf[:0]
		}
		quit := false
		for _, b := range batch {
			switch {
			case b.rec != nil:
				buf = append(buf, b.rec...)
				if w.cfg.Fsync == SyncAlways {
					flushBuf()
				}
			case b.ckpt != nil:
				flushBuf()
				w.checkpoint(b.gen, b.ckpt)
			case b.done != nil:
				flushBuf()
				w.syncSeg()
				b.done <- w.getFailed()
				if b.quit {
					quit = true
				}
			}
		}
		flushBuf()
		if cap(buf) > maxBatchBuf {
			buf = nil
		}
		if w.cfg.Fsync != SyncNever {
			w.syncSeg()
		}
		w.obsBatches.Inc()
		if w.obsBatchH != nil {
			w.obsBatchH.Observe(time.Since(t0))
		}
		if quit {
			if w.seg != nil {
				w.seg.Close()
				w.seg = nil
			}
			return
		}
	}
}

func (w *Writer) getFailed() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.failed
}

// fail flips the Writer into degraded mode on the first error.
func (w *Writer) fail(err error) {
	w.errMu.Lock()
	first := w.failed == nil
	if first {
		w.failed = err
	}
	w.errMu.Unlock()
	w.obsErrors.Inc()
	if first && w.OnError != nil {
		// Off the writer goroutine: the handler may itself append to
		// the journal (fault reports edit the Errors window), and a
		// full queue would otherwise deadlock the drain loop.
		go w.OnError(err)
	}
}

// ensureSeg opens the current segment, creating it with its header if
// this is the first record since the last checkpoint.
func (w *Writer) ensureSeg() bool {
	if w.seg != nil {
		return true
	}
	name := segmentName(w.base)
	f, err := w.fsys.Create(name)
	if err != nil {
		w.fail(fmt.Errorf("journal: create %s: %w", name, err))
		return false
	}
	if _, err := f.Write(appendSegmentHeader(nil, w.base)); err != nil {
		f.Close()
		w.fail(fmt.Errorf("journal: write %s header: %w", name, err))
		return false
	}
	w.seg = f
	w.segBase = w.base
	return true
}

func (w *Writer) writeBatch(buf []byte) {
	if w.getFailed() != nil {
		w.obsDrops.Inc()
		return
	}
	if !w.ensureSeg() {
		w.obsDrops.Inc()
		return
	}
	if _, err := w.seg.Write(buf); err != nil {
		w.fail(fmt.Errorf("journal: append: %w", err))
		return
	}
	if w.cfg.Fsync == SyncAlways {
		w.syncSeg()
	}
}

func (w *Writer) syncSeg() {
	if w.seg == nil || w.getFailed() != nil {
		return
	}
	if err := w.seg.Sync(); err != nil {
		w.fail(fmt.Errorf("journal: fsync: %w", err))
		return
	}
	w.obsFsyncs.Inc()
}

// checkpoint writes the snapshot atomically, rotates to a fresh
// segment base, and compacts: once the new checkpoint is durable,
// every existing segment holds only generations at or below gen and
// is deleted. A crash anywhere before the rename leaves the previous
// checkpoint + segments fully intact.
func (w *Writer) checkpoint(gen uint64, payload []byte) {
	if w.getFailed() != nil {
		return
	}
	const tmp = "checkpoint.tmp"
	f, err := w.fsys.Create(tmp)
	if err != nil {
		w.fail(fmt.Errorf("journal: checkpoint: %w", err))
		return
	}
	if _, err := f.Write(encodeCheckpoint(gen, payload)); err != nil {
		f.Close()
		w.fail(fmt.Errorf("journal: checkpoint write: %w", err))
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		w.fail(fmt.Errorf("journal: checkpoint fsync: %w", err))
		return
	}
	if err := f.Close(); err != nil {
		w.fail(fmt.Errorf("journal: checkpoint close: %w", err))
		return
	}
	if err := w.fsys.Rename(tmp, "checkpoint"); err != nil {
		w.fail(fmt.Errorf("journal: checkpoint rename: %w", err))
		return
	}
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	w.base = gen
	// Compaction: every record written so far has gen <= the new
	// checkpoint's, so all existing segments are stale.
	if names, err := w.fsys.List(); err == nil {
		for _, name := range names {
			if _, ok := parseSegmentName(name); ok {
				w.fsys.Remove(name)
			}
		}
	}
	w.obsCkpts.Inc()
	if w.cfg.Fsync == SyncAlways || w.cfg.Fsync == SyncBatch {
		w.obsFsyncs.Inc()
	}
}

// scanMaxGen finds the highest generation recorded anywhere in the
// directory. Lenient by design: torn tails and even corrupt middles
// must not stop a new Writer from picking a safely-larger generation.
func scanMaxGen(fsys Fsys) (uint64, error) {
	names, err := fsys.List()
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, name := range names {
		if name == "checkpoint" {
			if b, err := fsys.ReadFile(name); err == nil {
				if gen, _, err := decodeCheckpoint(b); err == nil && gen > max {
					max = gen
				}
			}
			continue
		}
		base, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		if base > max {
			max = base
		}
		b, err := fsys.ReadFile(name)
		if err != nil {
			continue
		}
		for _, op := range scanOps(b) {
			if op.Gen > max {
				max = op.Gen
			}
		}
	}
	return max, nil
}

// scanOps decodes as many well-formed records as possible, ignoring
// any damage. Used only for generation scanning, never for replay.
func scanOps(seg []byte) []Op {
	var ops []Op
	ends := RecordEnds(seg)
	if len(ends) == 0 {
		return nil
	}
	for i := 1; i < len(ends); i++ {
		payload := seg[ends[i-1]+recHeaderLen : ends[i]]
		if op, err := decodeOpPayload(payload); err == nil {
			ops = append(ops, op)
		}
	}
	return ops
}
