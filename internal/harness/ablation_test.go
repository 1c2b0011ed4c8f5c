package harness

import (
	"math"
	"strings"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
)

// TestAblationPointsMatchIndependentRuns is the oracle of the ablations'
// cache resolution: every (workload, configuration) point of both
// drivers — read from a cached variant or run live as a one-off binary —
// equals an independent analysis of the evaluation binary, a
// software-gated uarch.Run of the rebuilt program and a standalone packed
// emulation of it. Points are evaluated concurrently, as the drivers'
// workers do, so the race detector sees the shared memoized Sim and
// DynWidthHistogram calls.
func TestAblationPointsMatchIndependentRuns(t *testing.T) {
	s := NewSuite(true)
	s.Synthetics = []string{"syn:narrow/small/2", "syn:branchy/small/3", "syn:churn/small/4"}
	type job struct {
		name  string
		cfg   ablationConfig
		timed bool
	}
	var jobs []job
	for _, name := range s.Names() {
		for _, cfg := range opcodeAblation {
			jobs = append(jobs, job{name, cfg, true})
		}
		for _, cfg := range analysisAblation {
			jobs = append(jobs, job{name, cfg, false})
		}
	}
	got, err := mapSlice(testCtx, 4, jobs, func(j job) (ablationPoint, error) {
		return s.ablate(j.name, j.cfg.opts, j.timed)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		at := j.name + "/" + j.cfg.label
		p, err := s.Program(j.name, s.evalClass())
		if err != nil {
			t.Fatal(err)
		}
		r, err := vrp.Analyze(p, j.cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		q := r.Apply()
		var hist vrp.WidthHistogram
		m := emu.New(q)
		m.Sink = widthSink{&hist}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got[i].hist != hist {
			t.Errorf("%s: width histogram %v, independent emulation %v", at, got[i].hist.Count, hist.Count)
		}
		if !j.timed {
			if got[i].sim != nil {
				t.Errorf("%s: untimed point carries a simulation", at)
			}
			continue
		}
		want, err := uarch.Run(q, s.Uarch, s.Power, power.GateSoftware)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i].sim
		if g.Cycles != want.Cycles {
			t.Errorf("%s: %d cycles, independent run %d", at, g.Cycles, want.Cycles)
		}
		for st := range power.NumStructures {
			if g.Energy.Accesses[st] != want.Energy.Accesses[st] ||
				math.Float64bits(g.Energy.Energy[st]) != math.Float64bits(want.Energy.Energy[st]) {
				t.Errorf("%s: %v accesses/energy %d/%v, independent run %d/%v", at, power.Structure(st),
					g.Energy.Accesses[st], g.Energy.Energy[st], want.Energy.Accesses[st], want.Energy.Energy[st])
			}
		}
	}
}

// TestAblationResolutionAtRef pins which ablation binaries of the eight
// kernels at ref inputs are cached variants and which are one-off
// programs ("new"): 17 of 64 — every ideal-ISA binary, compress and gcc
// without branch refinement, and seven of the ranges-only binaries
// (m88ksim's is its vrp-conv variant).
func TestAblationResolutionAtRef(t *testing.T) {
	// Columns: opcodeAblation's rows, then analysisAblation's.
	want := map[string]string{
		"compress": "base vrp new vrp vrp-conv vrp new new",
		"gcc":      "base vrp new vrp vrp-conv vrp new new",
		"go":       "base vrp new vrp vrp-conv vrp vrp new",
		"ijpeg":    "base vrp new vrp vrp-conv vrp vrp new",
		"li":       "base vrp new vrp vrp-conv vrp vrp new",
		"m88ksim":  "base vrp new vrp vrp-conv vrp vrp vrp-conv",
		"perl":     "base vrp new vrp vrp-conv vrp vrp new",
		"vortex":   "base vrp new vrp vrp-conv vrp vrp new",
	}
	s := NewSuite(false)
	configs := append(append([]ablationConfig(nil), opcodeAblation...), analysisAblation...)
	fresh := 0
	for _, name := range s.Names() {
		var row []string
		for _, cfg := range configs {
			v, q, err := s.ablationProgram(name, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			if q != nil {
				v = "new"
				fresh++
			}
			row = append(row, v)
		}
		if got := strings.Join(row, " "); got != want[name] {
			t.Errorf("%s resolves to %q, want %q", name, got, want[name])
		}
	}
	if fresh != 17 {
		t.Errorf("%d one-off ablation binaries, want 17", fresh)
	}
	if s.Emulations() != 0 {
		t.Errorf("resolution performed %d emulations, want 0", s.Emulations())
	}
}
