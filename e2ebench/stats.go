package main

import (
	"math"
	"sort"
	"time"
)

// opClass sorts operations for the per-class latencies: reads mutate
// nothing (reads, selects, scrolls), writes do (writes, edits,
// built-ins), execs run an external tool.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classExec
)

// opSample is one finished operation: when it finished, relative to the
// start of the measured phase, and how long it took.
type opSample struct {
	at, dur time.Duration
	class   opClass
	failed  bool
}

// opStats is one caller's record of a measured phase.
type opStats struct {
	t0      time.Time
	samples []opSample
}

func newOpStats(t0 time.Time) *opStats {
	return &opStats{t0: t0, samples: make([]opSample, 0, 1<<14)}
}

func (s *opStats) record(c opClass, d time.Duration, err error) {
	s.samples = append(s.samples, opSample{at: time.Since(s.t0), dur: d, class: c, failed: err != nil})
}

// A measured phase is cut into chunks of consecutive operations, and
// every end-to-end percentile is the median of its per-chunk values: a
// burst of noise from outside the process spoils a chunk rather than
// the run. A chunk holds at least minChunk operations, so its p99 has at
// least ten samples beyond it. The rate is over the whole phase: on the
// desk, journal checkpoints of hundreds of milliseconds come about once
// a second, and a per-chunk rate would swing with how many a chunk got.
const (
	maxChunks = 20
	minChunk  = 1000
)

// summary is the end-to-end view of one measured phase.
type summary struct {
	ops, failed             int64
	rate                    float64 // completed ops per second
	p50, p90, p99, read50   float64 // microseconds
	write50                 float64
	exec50                  float64
	n, nRead, nWrite, nExec int // samples behind each percentile
}

func summarize(list []*opStats, elapsed time.Duration) summary {
	var all []opSample
	for _, s := range list {
		all = append(all, s.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var sum summary
	for _, s := range all {
		sum.ops++
		if s.failed {
			sum.failed++
			continue
		}
		sum.n++
		switch s.class {
		case classRead:
			sum.nRead++
		case classWrite:
			sum.nWrite++
		case classExec:
			sum.nExec++
		}
	}
	chunks := len(all) / minChunk
	if chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	var p50s, p90s, p99s, r50s, w50s, e50s []float64
	for c := 0; c < chunks; c++ {
		part := all[c*len(all)/chunks : (c+1)*len(all)/chunks]
		var d, r, wr, ex []float64
		for _, s := range part {
			if s.failed {
				continue
			}
			us := float64(s.dur.Nanoseconds()) / 1e3
			d = append(d, us)
			switch s.class {
			case classRead:
				r = append(r, us)
			case classWrite:
				wr = append(wr, us)
			case classExec:
				ex = append(ex, us)
			}
		}
		p50s, p90s, p99s = append(p50s, quantileF(d, 0.50)), append(p90s, quantileF(d, 0.90)), append(p99s, quantileF(d, 0.99))
		r50s, w50s = append(r50s, quantileF(r, 0.50)), append(w50s, quantileF(wr, 0.50))
		if len(ex) > 0 {
			e50s = append(e50s, quantileF(ex, 0.50))
		}
	}
	sum.rate = float64(sum.n) / elapsed.Seconds()
	sum.p50, sum.p90, sum.p99 = median(p50s), median(p90s), median(p99s)
	sum.read50, sum.write50, sum.exec50 = median(r50s), median(w50s), median(e50s)
	return sum
}

// quantileF is the nearest-rank q-quantile of xs.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
