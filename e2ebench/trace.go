package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer: its name, when
// it started and ended (nanoseconds since the tracer's epoch), the span
// that caused it (-1 at the top) and the operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer records spans in memory; each recording goroutine owns one
// spanLog, so recording takes no lock. A nil *spanLog records nothing,
// which is how the untraced phase runs the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
	ops   atomic.Int64
}

type spanLog struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log returns a fresh per-goroutine span log.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{t: t, spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// nextOp mints an operation id shared by every span of one operation.
func (l *spanLog) nextOp() int64 {
	if l == nil {
		return 0
	}
	return l.t.ops.Add(1)
}

// add records a span the caller timed.
func (l *spanLog) add(name string, start, end time.Time, parent int, op int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(start.Sub(l.t.epoch)), End: int64(end.Sub(l.t.epoch)), Parent: parent, Op: op})
	return len(l.spans) - 1
}

// durations returns every recorded duration of the named span, in
// microseconds, across all logs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.Name == name && s.End >= s.Start {
				out = append(out, float64(s.End-s.Start)/1e3)
			}
		}
	}
	return out
}

// write stores every span as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, l := range t.logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireCount counts bytes and Write calls on every connection of the
// wire, both ends.
type wireCount struct {
	bytes, writes atomic.Int64
}

type countConn struct {
	net.Conn
	c *wireCount
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

type countListener struct {
	net.Listener
	c *wireCount
}

func (l countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: conn, c: l.c}, nil
}

// ---- CPU profile attribution -------------------------------------------------

// modules are the repository layers a CPU sample can be charged to.
var modules = []string{
	"srvnet", "vfs", "helpfs", "core", "journal", "notify", "text",
	"frame", "draw", "event", "shell", "userland", "cc",
}

// cpuShares reads a runtime/pprof CPU profile and charges each sample to
// a row: gc when the stack runs the collector, syscall when the leaf is
// in a system call, else the innermost frame that belongs to one of the
// repository's modules; anything left is "other" (the benchmark's own
// code, the scheduler). It returns each row's share of all samples.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		// The CPU profile's second value is nanoseconds; the first is
		// the sample count. Weight by time.
		w := s.values[len(s.values)-1]
		var funcs []string
		for _, loc := range s.locs {
			funcs = append(funcs, p.locFuncs[loc]...)
		}
		counts[chargeRow(funcs)] += w
		total += w
	}
	shares := map[string]float64{}
	for _, m := range append(append([]string(nil), modules...), "gc", "syscall", "other") {
		if total > 0 {
			shares[m] = float64(counts[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// chargeRow picks the row for one stack, leaf first.
func chargeRow(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || f == "runtime.markroot" || f == "runtime.scanobject" {
			return "gc"
		}
	}
	if len(funcs) > 0 {
		leaf := funcs[0]
		if strings.HasPrefix(leaf, "syscall.") || strings.HasPrefix(leaf, "internal/runtime/syscall.") ||
			strings.HasPrefix(leaf, "runtime/internal/syscall.") {
			return "syscall"
		}
	}
	for _, f := range funcs {
		if m, ok := moduleOf(f); ok {
			return m
		}
	}
	return "other"
}

// moduleOf maps "repro/internal/srvnet.(*Client).rpc" to "srvnet".
func moduleOf(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m, true
		}
	}
	return "", false
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf wire format of an uncompressed
// profile.proto message: samples (field 2), locations (4), functions
// (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	type line struct{ fn uint64 }
	type location struct {
		id    uint64
		lines []line
	}
	var (
		samples []sample
		locs    []location
		funcs   = map[uint64]int64{} // function id -> name string index
		strs    []string
	)
	err := eachField(b, func(num int, wt int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(sub, func(n, wt int, v uint64, sub []byte) error {
				switch n {
				case 1:
					ids, err := varints(wt, v, sub)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wt, v, sub)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("cpu profile: sample without values")
			}
			samples = append(samples, s)
		case 4:
			var l location
			err := eachField(sub, func(n, wt int, v uint64, sub []byte) error {
				switch n {
				case 1:
					l.id = v
				case 4:
					var ln line
					err := eachField(sub, func(n, wt int, v uint64, _ []byte) error {
						if n == 1 {
							ln.fn = v
						}
						return nil
					})
					l.lines = append(l.lines, ln)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs = append(locs, l)
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(n, wt int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for _, l := range locs {
		for _, ln := range l.lines {
			idx := funcs[ln.fn]
			if idx >= 0 && int(idx) < len(strs) {
				p.locFuncs[l.id] = append(p.locFuncs[l.id], strs[idx])
			}
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wt int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wt, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wt, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wt)
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (wire type 2) or not.
func varints(wt int, v uint64, sub []byte) ([]uint64, error) {
	if wt == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(sub) > 0 {
		x, n := uvarint(sub)
		if n <= 0 {
			return nil, errors.New("cpu profile: bad packed varint")
		}
		out = append(out, x)
		sub = sub[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// traceDir is where a traced run leaves its spans and CPU profile.
func traceDir(work string) string { return filepath.Join(work, "trace") }
