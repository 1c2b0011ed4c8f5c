package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		pct, v := tailPercentile(xs, 99)
		if n < 20 {
			if pct != 100 || v != float64(n) {
				t.Fatalf("n=%d: got p%g=%g, want the maximum as p100", n, pct, v)
			}
			continue
		}
		rank := int(v) // the data are 1..n, so a value is its rank
		if beyond := n - rank; beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it, want >= 10", n, pct, beyond)
		}
		if pct > 99 || pct < 50 || pct != math.Floor(pct) {
			t.Fatalf("n=%d: percentile %g, want a whole percentile in 50..99", n, pct)
		}
		// The next whole percentile up must break the rule (or pass 99).
		if next := pct + 1; next <= 99 && n-int(math.Ceil(next/100*float64(n))) >= 10 {
			t.Fatalf("n=%d: p%g qualifies too, p%g is not the highest", n, next, pct)
		}
	}
	if pct, _ := tailPercentile(make([]float64, 1000), 99); pct != 99 {
		t.Fatalf("1000 samples: p%g, want p99", pct)
	}
	if pct, v := tailPercentile(nil, 99); pct != 0 || v != 0 {
		t.Fatalf("no samples: p%g=%g", pct, v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5.5, 1.25}, 0.1875, 6.5625},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 4, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// benchmarkFile is the part of BENCHMARK.json this program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEmittedNames(t *testing.T) {
	e2e := endToEnd(1, phase{walls: []float64{1, 2}, cpus: []float64{1, 2}, rss: []float64{1, 2}}, 1, 1)
	layers := layerMetrics(nil)
	for name := range e2e {
		if !validName(name) {
			t.Errorf("end-to-end metric %q is outside [A-Za-z0-9_.-]+", name)
		}
	}
	for name := range layers {
		if !validName(name) {
			t.Errorf("per-layer metric %q is outside [A-Za-z0-9_.-]+", name)
		}
		if _, dup := e2e[name]; dup {
			t.Errorf("metric %q is both end-to-end and per-layer", name)
		}
	}
	for _, bad := range []string{"", "a b", "p99/ms", "ü", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted map[string]Metric) {
		var names []string
		for _, d := range declared {
			names = append(names, d.Name)
			if m, ok := emitted[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s metric %s (%s): emitted %+v", kind, d.Name, d.Unit, m)
			}
		}
		var got []string
		for name := range emitted {
			got = append(got, name)
		}
		sort.Strings(names)
		sort.Strings(got)
		if !slices.Equal(names, got) {
			t.Errorf("%s metrics: BENCHMARK.json declares %v, the program emits %v", kind, names, got)
		}
	}
	check("end_to_end", bf.EndToEnd, e2e)
	check("per_layer", bf.PerLayer, layers)
	for _, w := range bf.Workloads {
		if !validName(w.Name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]+", w.Name)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := Result{Correct: true, Attempted: 38, Failed: 0, Metrics: map[string]Metric{
		"wall_s":           {5.971716649, "s"},
		"uarch.mips_1mode": {4.697992662681835, "MIPS"},
		"harness.fig8_ms":  {2242.810101, "ms"},
	}}
	line, err := encodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("result has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var back Result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip: got %+v, want %+v", back, r)
	}
	for _, bad := range []map[string]Metric{
		{"bad name": {1, "s"}},
		{"wall_s": {math.NaN(), "s"}},
		{"wall_s": {math.Inf(1), "s"}},
	} {
		if _, err := encodeResult(Result{Attempted: 1, Metrics: bad}); err == nil {
			t.Errorf("encodeResult(%v) succeeded", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Run: "a", Name: "harness.fig8", Start: 0, End: 100},
		// Overlapping children cover 10..60: 50 ns of the parent.
		{ID: 2, Parent: 1, Run: "a", Name: "store.get", Start: 10, End: 40},
		{ID: 3, Parent: 1, Run: "a", Name: "store.get", Start: 30, End: 60},
		// Same IDs in another run are other spans.
		{ID: 1, Run: "b", Name: "harness.fig8", Start: 0, End: 20},
	}
	self := selfTimes(spans)
	if got, want := self["harness.fig8"], 70e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("harness self time %g, want %g", got, want)
	}
	if got, want := self["store.get"], 60e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("store.get self time %g, want %g", got, want)
	}
}
