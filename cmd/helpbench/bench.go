// Benchmark-comparison mode: parse `go test -bench -benchmem` text
// output into JSON and gate regressions against a checked-in baseline.
//
//	go test -bench=. -benchmem ./... | helpbench -benchjson - -baseline BENCH_BASELINE.json -o BENCH_PR2.json
//
// Exits nonzero when any benchmark present in both runs regressed more
// than 20% on ns/op or allocs/op. A baseline benchmark missing from the
// current run is listed on stderr as "dropped: <name>" and does not
// fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchEntry is one benchmark's numbers. When a baseline is supplied the
// baseline values and the improvement ratios (baseline/current, so >1
// means faster/leaner) are recorded alongside.
type benchEntry struct {
	NsPerOp             float64 `json:"ns_per_op"`
	BytesPerOp          float64 `json:"bytes_per_op"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	NsRatio             float64 `json:"ns_ratio,omitempty"`
	AllocsRatio         float64 `json:"allocs_ratio,omitempty"`
}

// regressionSlack is how much worse a metric may get before the compare
// gate fails the run.
const regressionSlack = 1.20

// parseBench reads `go test -bench` text output. Only Benchmark result
// lines are parsed; everything else (pkg headers, PASS/ok, logs) is
// skipped. The trailing -N GOMAXPROCS suffix is stripped so names stay
// stable across machines. When a benchmark appears more than once
// (`-count N`), the run with the lowest ns/op wins: the minimum is the
// noise-robust estimator on a shared machine — every source of
// interference only ever makes a run slower.
func parseBench(r io.Reader) (map[string]benchEntry, error) {
	out := map[string]benchEntry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var e benchEntry
		// fields[1] is the iteration count; then "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		if e.NsPerOp > 0 {
			if prev, ok := out[name]; !ok || e.NsPerOp < prev.NsPerOp {
				out[name] = e
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

func loadBaseline(path string) (map[string]benchEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base map[string]benchEntry
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return base, nil
}

// compare annotates cur with baseline numbers and returns the names that
// regressed beyond the slack on ns/op or allocs/op, and the sorted
// names of baseline benchmarks absent from cur.
func compare(cur, base map[string]benchEntry) (regressed, dropped []string) {
	for name := range base {
		if _, ok := cur[name]; !ok {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for name, c := range cur {
		b, ok := base[name]
		if !ok {
			continue
		}
		c.BaselineNsPerOp = b.NsPerOp
		c.BaselineAllocsPerOp = b.AllocsPerOp
		if c.NsPerOp > 0 {
			c.NsRatio = b.NsPerOp / c.NsPerOp
		}
		if c.AllocsPerOp > 0 {
			c.AllocsRatio = b.AllocsPerOp / c.AllocsPerOp
		}
		cur[name] = c
		if c.NsPerOp > b.NsPerOp*regressionSlack {
			regressed = append(regressed,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%%)",
					name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1)))
		}
		if c.AllocsPerOp > b.AllocsPerOp*regressionSlack {
			regressed = append(regressed,
				fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (+%.0f%%)",
					name, c.AllocsPerOp, b.AllocsPerOp, 100*(c.AllocsPerOp/b.AllocsPerOp-1)))
		}
	}
	return regressed, dropped
}

// runBenchMode is the entry point for -benchjson. It reads bench text
// from the named file ("-" for stdin), optionally compares against a
// baseline JSON, writes the annotated JSON to outPath (or stdout), and
// exits nonzero on regression.
func runBenchMode(inPath, baselinePath, outPath string) {
	in := io.Reader(os.Stdin)
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "helpbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	cur, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helpbench: parse bench output: %v\n", err)
		os.Exit(1)
	}

	var regressed []string
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "helpbench: %v\n", err)
			os.Exit(1)
		}
		var dropped []string
		regressed, dropped = compare(cur, base)
		for _, name := range dropped {
			fmt.Fprintf(os.Stderr, "dropped: %s\n", name)
		}
	}

	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "helpbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "helpbench: %v\n", err)
		os.Exit(1)
	}

	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "helpbench: %d benchmark(s) regressed >%.0f%%:\n",
			len(regressed), 100*(regressionSlack-1))
		for _, r := range regressed {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		os.Exit(1)
	}
}
