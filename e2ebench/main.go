// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the real stack for a fixed time, checks the
// outputs, and prints every metric by name with its unit; the last line
// of standard output is one JSON object. From the repository root:
//
//	bash e2ebench/run.sh --workload remote-edit --seed 1 --seconds 25 --trace 0
//
// It reads figures/ and keeps its scratch files under .bench_build/,
// both relative to the working directory. See README.md for the
// workloads, the metrics and what each predicts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory: journals and trace output
	figures  string // directory holding figN.txt
}

// metric is one named, unit-carrying number; n is the sample count a
// percentile rests on (0 for everything else).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	metrics           []metric
	extra             []metric // printed in the table, not in the JSON line
}

var workloads = map[string]func(config) (*result, error){
	"remote-edit":     func(c config) (*result, error) { return runRemote(c, false) },
	"crowded-session": func(c config) (*result, error) { return runRemote(c, true) },
	"desk-session":    runDesk,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "remote-edit, crowded-session or desk-session")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: op mix, payloads, gestures and the log")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "e2ebench"), "scratch directory")
	flag.StringVar(&cfg.figures, "figures", "figures", "directory holding the paper's figures (figN.txt)")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		var att, failed int64
		if res != nil {
			att, failed = res.attempted, res.failed
		}
		printJSON(att, failed, false, nil)
		os.Exit(1)
	}
	printTable(cfg, res)
	printJSON(res.attempted, res.failed, true, res.metrics)
}

// errCheck marks an output-check failure, as opposed to a set-up error.
var errCheck = errors.New("output check failed")

func printTable(cfg config, res *result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("%s  seed=%d  %s  attempted=%d failed=%d\n", cfg.workload, cfg.seed, mode, res.attempted, res.failed)
	for _, m := range append(append([]metric(nil), res.metrics...), res.extra...) {
		if m.n > 0 {
			fmt.Printf("  %-26s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("  %-26s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

func printJSON(attempted, failed int64, correct bool, ms []metric) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, map[string]val{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, _ := json.Marshal(out) // a struct of plain values always encodes
	fmt.Println(string(b))
}

// setupDone reports whether a run has set its workload up often enough:
// at least five times and for at least two seconds in all (at most 50
// times). setup_s is the median; only the last instance is measured.
func setupDone(times []float64) bool {
	total := 0.0
	for _, t := range times {
		total += t
	}
	return len(times) >= 50 || len(times) >= 5 && total >= 2
}

// endToEnd turns one measured phase's summary into the end-to-end
// metrics. The JSON line carries the ones steady enough to gate on;
// the rest go to the table only (README.md says why for each).
func endToEnd(sum summary, setups []float64, heapMB float64) (ms, extra []metric) {
	ms = []metric{
		{name: "op_p50_us", value: sum.p50, unit: "us", n: sum.n},
		{name: "read_p50_us", value: sum.read50, unit: "us", n: sum.nRead},
		{name: "write_p50_us", value: sum.write50, unit: "us", n: sum.nWrite},
		{name: "setup_s", value: median(setups), unit: "s"},
	}
	extra = []metric{
		{name: "live_heap_mb", value: heapMB, unit: "MB"},
		{name: "ops_per_s", value: sum.rate, unit: "1/s"},
		{name: "op_p90_us", value: sum.p90, unit: "us", n: sum.n},
		{name: "op_p99_us", value: sum.p99, unit: "us", n: sum.n},
	}
	if sum.nExec > 0 {
		extra = append(extra, metric{name: "exec_p50_us", value: sum.exec50, unit: "us", n: sum.nExec})
	}
	frac := 0.0
	if sum.ops > 0 {
		frac = float64(sum.failed) / float64(sum.ops)
	}
	extra = append(extra, metric{name: "failed_frac", value: frac, unit: "fraction"})
	return ms, extra
}

// liveHeapMB is the Go heap in use after a collection: the least of
// three, a little apart, so a buffer some goroutine is just letting go
// of is not counted.
func liveHeapMB() float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		least = math.Min(least, float64(m.HeapAlloc)/(1<<20))
	}
	return least
}

// profiled runs fn under the CPU profiler and returns the profile's
// per-module shares; the profile is kept in dir.
func profiled(dir, name string, fn func()) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return cpuShares(path)
}

// cpuMetrics turns the profile's shares into cpu.<row> metrics.
func cpuMetrics(shares map[string]float64) []metric {
	var names []string
	for k := range shares {
		names = append(names, k)
	}
	sort.Strings(names)
	var ms []metric
	for _, k := range names {
		ms = append(ms, metric{name: "cpu." + k, value: shares[k], unit: "fraction"})
	}
	return ms
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
