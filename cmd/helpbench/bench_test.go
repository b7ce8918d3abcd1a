package main

import (
	"strings"
	"testing"
)

func TestParseBenchMinOfN(t *testing.T) {
	out := `goos: linux
BenchmarkRenderScreen-8   	    1000	     30000 ns/op	     100 B/op	       5 allocs/op
BenchmarkRenderScreen-8   	    1000	     25000 ns/op	      90 B/op	       5 allocs/op
BenchmarkRenderScreen-8   	    1000	     40000 ns/op	     110 B/op	       5 allocs/op
BenchmarkOther-8          	    2000	      1000 ns/op
PASS
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := got["BenchmarkRenderScreen"]
	if !ok {
		t.Fatalf("entries = %v", got)
	}
	if e.NsPerOp != 25000 {
		t.Errorf("ns/op = %v, want the minimum 25000", e.NsPerOp)
	}
	if e.BytesPerOp != 90 || e.AllocsPerOp != 5 {
		t.Errorf("min run's companions not kept: %+v", e)
	}
	if got["BenchmarkOther"].NsPerOp != 1000 {
		t.Errorf("BenchmarkOther = %+v", got["BenchmarkOther"])
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	cur := map[string]benchEntry{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 1300, AllocsPerOp: 10},
		"BenchmarkC": {NsPerOp: 500},
	}
	base := map[string]benchEntry{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 10},
	}
	regressed, _ := compare(cur, base)
	if len(regressed) != 1 || !strings.Contains(regressed[0], "BenchmarkB") {
		t.Errorf("regressed = %v, want only BenchmarkB", regressed)
	}
	if cur["BenchmarkA"].NsRatio != 1 {
		t.Errorf("NsRatio = %v", cur["BenchmarkA"].NsRatio)
	}
}

func TestCompareListsDropped(t *testing.T) {
	cur := map[string]benchEntry{
		"BenchmarkA": {NsPerOp: 1000},
	}
	base := map[string]benchEntry{
		"BenchmarkA":        {NsPerOp: 1000},
		"BenchmarkZ/cached": {NsPerOp: 10},
		"BenchmarkB":        {NsPerOp: 500},
	}
	regressed, dropped := compare(cur, base)
	if len(regressed) != 0 {
		t.Errorf("regressed = %v, want none: a dropped benchmark does not fail the gate", regressed)
	}
	if want := []string{"BenchmarkB", "BenchmarkZ/cached"}; strings.Join(dropped, ",") != strings.Join(want, ",") {
		t.Errorf("dropped = %v, want %v", dropped, want)
	}
	if _, ok := cur["BenchmarkB"]; ok {
		t.Error("a dropped benchmark was added to the current run")
	}
}
