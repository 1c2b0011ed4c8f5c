package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, which extrapolates past the ends for tiny samples),
// since that is how the benchmark's run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 0 {
			return 0, 0
		}
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// tailPercentile applies the benchmark's tail rule: report the highest
// percentile, at most want, that leaves at least ten samples beyond it
// (nearest rank: the value at rank ceil(p/100*n)). It returns the
// percentile used and its value. Below twenty samples the only qualifying
// percentiles lie under the median, which is no tail, so the maximum is
// reported as percentile 100.
func tailPercentile(xs []float64, want float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	// Whole percentiles keep the reported label readable.
	pct = min(want, math.Floor(100*float64(n-10)/float64(n)))
	if pct < 50 {
		return 100, s[n-1]
	}
	return pct, s[int(math.Ceil(pct/100*float64(n)))-1]
}

// nameRE is the alphabet every emitted workload and metric name uses.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether name may appear in the benchmark's output.
func validName(name string) bool { return len(name) <= 64 && nameRE.MatchString(name) }

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the single JSON line a benchmark run ends with.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// encodeResult renders the result line, rejecting names outside the
// benchmark's alphabet and values JSON cannot carry.
func encodeResult(r Result) ([]byte, error) {
	for name, m := range r.Metrics {
		if !validName(name) {
			return nil, fmt.Errorf("metric name %q: want [A-Za-z0-9_.-]+", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s: value %v is not a number", name, m.Value)
		}
	}
	return json.Marshal(r)
}
