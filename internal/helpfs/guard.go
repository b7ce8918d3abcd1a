package helpfs

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/vfs"
)

// guardDevice isolates the file service from bugs in the handlers it
// wraps: a panic while serving a client becomes an I/O error on that
// client's file descriptor, reported through Help.PanicReport (which
// flushes the journal and writes a crash report) — it never takes the
// whole session down. The mutating entry points also sweep the journal
// afterwards, so state changed through /mnt/help is as durable as state
// changed by a gesture.
type guardDevice struct {
	s    *Service
	name string
	dev  vfs.Device
}

// guardFiles are pooled: opens on the hot path (bodyapp, ctl) would
// otherwise pay one allocation each just to box the wrapper. Close
// returns the wrapper; a file used after Close was already broken, and
// now additionally sees a zeroed wrapper rather than its old handler.
var guardFilePool = sync.Pool{New: func() any { return new(guardFile) }}

// Gen forwards the inner device's edit generation (vfs.GenDevice), so
// guarding a device does not hide its generation from srvnet's cache
// plumbing. A panic while computing it is counted and reported like any
// other, and degrades to "no generation" rather than taking down the
// reader; the error guard builds has no caller to go to. vfs reads a
// generation only inside one of its own operations, under the same lock
// as a read of the file, so guard may report directly.
func (g guardDevice) Gen() uint64 {
	gd, ok := g.dev.(vfs.GenDevice)
	if !ok {
		return 0
	}
	var err error
	defer g.s.guard("gen", g.name, &err)
	return gd.Gen()
}

// ReadWait forwards the blocking-read extension (vfs.WaitDevice) when
// the inner device supports it; anything else reports ErrNotWaitable
// and vfs degrades to a snapshot read. Unlike every other guarded op it
// runs WITHOUT the actor lock — that is the extension's contract — so
// the panic path must not call PanicReport directly (it expects the
// lock held); it reports through the apply queue instead.
func (g guardDevice) ReadWait(since uint64, stop <-chan struct{}, timeout time.Duration) (data []byte, next uint64, err error) {
	wd, ok := g.dev.(vfs.WaitDevice)
	if !ok {
		return nil, 0, vfs.ErrNotWaitable
	}
	defer func() {
		if r := recover(); r != nil {
			op := "readwait " + g.name
			g.s.h.ReportPanicAsync("helpfs "+op, r, debug.Stack())
			err = fmt.Errorf("helpfs: %s: internal error: %v", op, r)
		}
	}()
	return wd.ReadWait(since, stop, timeout)
}

func (g guardDevice) OpenDevice(mode int) (f vfs.DeviceFile, err error) {
	// finish recovers first, then sweeps: opening new/ctl creates a
	// window, and the creation must be journaled even when a later
	// handler panics.
	defer g.s.finish("open", g.name, &err)
	inner, err := g.dev.OpenDevice(mode)
	if err != nil {
		return nil, err
	}
	gf := guardFilePool.Get().(*guardFile)
	gf.s, gf.name, gf.f = g.s, g.name, inner
	return gf, nil
}

type guardFile struct {
	s    *Service
	name string
	f    vfs.DeviceFile
}

func (g *guardFile) ReadAt(p []byte, off int64) (n int, err error) {
	defer g.s.guard("read", g.name, &err)
	return g.f.ReadAt(p, off)
}

func (g *guardFile) WriteAt(p []byte, off int64) (n int, err error) {
	defer g.s.finish("write", g.name, &err)
	return g.f.WriteAt(p, off)
}

// Close sweeps too: buffer handles apply their buffered writes here, so
// this is where a body replacement or bodyapp append actually lands.
func (g *guardFile) Close() (err error) {
	defer g.s.finish("close", g.name, &err)
	inner := g.f
	g.s, g.name, g.f = nil, "", nil
	guardFilePool.Put(g)
	return inner.Close()
}

// guard converts an in-flight panic into an error on the operation that
// triggered it, reporting through the session's crash machinery. The
// happy path must stay allocation-free: anything string-built here
// (operation labels, reports) is assembled only inside the recover
// branch.
func (s *Service) guard(verb, name string, err *error) {
	if r := recover(); r != nil {
		op := verb + " " + name
		s.h.PanicReport("helpfs "+op, r, debug.Stack())
		*err = fmt.Errorf("helpfs: %s: internal error: %v", op, r)
	}
}

// finish is the one deferred call on each mutating entry point: recover
// any panic, then sweep the journal. One defer instead of two keeps the
// guard cheap enough to leave on unconditionally.
func (s *Service) finish(verb, name string, err *error) {
	if r := recover(); r != nil {
		op := verb + " " + name
		s.h.PanicReport("helpfs "+op, r, debug.Stack())
		*err = fmt.Errorf("helpfs: %s: internal error: %v", op, r)
	}
	s.h.JournalSweep()
}

// register installs a device behind the panic guard.
func (s *Service) register(path string, d vfs.Device) error {
	return s.fs.RegisterDevice(path, guardDevice{s: s, name: path, dev: d})
}
