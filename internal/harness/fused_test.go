package harness

import (
	"math"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
)

// TestFigureMatricesEmulateOncePerVariant is the emulation-count probe of
// the trace layer's contract: regenerating the Figure 3 and Figure 8
// matrices must functionally emulate each (workload, variant) exactly
// once — the trace capture — with every simulation and every later reuse
// (histograms, repeated calls) served from the cache.
func TestFigureMatricesEmulateOncePerVariant(t *testing.T) {
	s := NewSuite(true)
	if _, err := s.Figure3(testCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure8(testCtx); err != nil {
		t.Fatal(err)
	}
	// Variants touched: base, vrp, and the five VRS thresholds.
	variants := int64(2 + len(Thresholds))
	want := int64(len(s.Names())) * variants
	if got := s.Emulations(); got != want {
		t.Errorf("Figure 3+8 matrices performed %d emulations, want %d (one per workload+variant)", got, want)
	}

	// The width histograms of Figure 2 read the cached traces: only the
	// one variant not yet traced (vrp-conv) costs new emulations.
	if _, err := s.Figure2(testCtx); err != nil {
		t.Fatal(err)
	}
	want += int64(len(s.Names()))
	if got := s.Emulations(); got != want {
		t.Errorf("after Figure 2: %d emulations, want %d (only vrp-conv traces added)", got, want)
	}

	// DynWidthHistogram is memoized and trace-backed: repeated calls add
	// no emulations at all.
	for _, name := range s.Names() {
		if _, err := s.DynWidthHistogram(name, "vrp"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DynWidthHistogram(name, "vrp"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Emulations(); got != want {
		t.Errorf("DynWidthHistogram re-emulated: %d emulations, want %d", got, want)
	}
}

// TestFusedReportsMatchUnfused: the fused trace/replay pipeline must
// render every report byte-identically to the pre-trace pipeline (one
// live emulation per simulation, histogram and scan).
func TestFusedReportsMatchUnfused(t *testing.T) {
	fused := NewSuite(true)
	unfused := NewSuite(true)
	unfused.Unfused = true

	reports := []struct {
		id  string
		gen func(s *Suite) (*Report, error)
	}{
		{"table3", func(s *Suite) (*Report, error) { return s.Table3(testCtx) }},
		{"fig2", func(s *Suite) (*Report, error) { return s.Figure2(testCtx) }},
		{"fig3", func(s *Suite) (*Report, error) { return s.Figure3(testCtx) }},
		{"fig6", func(s *Suite) (*Report, error) { return s.Figure6(testCtx, 50) }},
		{"fig8", func(s *Suite) (*Report, error) { return s.Figure8(testCtx) }},
		{"fig12", func(s *Suite) (*Report, error) { return s.Figure12(testCtx) }},
		{"fig13", func(s *Suite) (*Report, error) { return s.Figure13(testCtx) }},
		{"fig15", func(s *Suite) (*Report, error) { return s.Figure15(testCtx, 50) }},
	}
	for _, re := range reports {
		rf, err := re.gen(fused)
		if err != nil {
			t.Fatalf("%s fused: %v", re.id, err)
		}
		ru, err := re.gen(unfused)
		if err != nil {
			t.Fatalf("%s unfused: %v", re.id, err)
		}
		if rf.Format() != ru.Format() {
			t.Errorf("%s: fused report differs from unfused\n--- fused ---\n%s\n--- unfused ---\n%s",
				re.id, rf.Format(), ru.Format())
		}
	}
	if fused.Emulations() >= unfused.Emulations() {
		t.Errorf("fused pipeline emulated %d times, unfused %d — fusion saved nothing",
			fused.Emulations(), unfused.Emulations())
	}
}

// TestOverBudgetRidersSeeEveryRecord: with a TraceBudget far below one
// chunk every capture is dropped on its first event, yet the consumer
// riding the capture pass must still see the whole stream. The riding
// Sim (a two-mode bank) must equal uarch.RunModes, and the riding width
// histogram a standalone packed pass, with the ride as the variant's
// only emulation.
func TestOverBudgetRidersSeeEveryRecord(t *testing.T) {
	sims, hists := NewSuite(true), NewSuite(true)
	sims.TraceBudget, hists.TraceBudget = 1024, 1024
	modes := modeGroups[2]
	for _, name := range sims.Names() {
		for _, variant := range []string{"base", "vrp", vrsVariant(50)} {
			at := name + "/" + variant
			p, err := sims.variantProgram(name, variant)
			if err != nil {
				t.Fatal(err)
			}

			before := sims.Emulations()
			var got []*uarch.Result
			for _, mode := range modes {
				r, err := sims.Sim(name, variant, mode)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, r)
			}
			if n := sims.Emulations() - before; n != 1 {
				t.Fatalf("%s: riding Sim cost %d emulations, want 1", at, n)
			}
			want, err := uarch.RunModes(p, sims.Uarch, sims.Power, modes)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := emu.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			if got[0].Instructions != raw.Dyn {
				t.Errorf("%s: riding Sim timed %d instructions, the program retires %d", at, got[0].Instructions, raw.Dyn)
			}
			for i, mode := range modes {
				g, w := got[i], want[i]
				if g.Cycles != w.Cycles || g.Instructions != w.Instructions || g.Energy.Accesses != w.Energy.Accesses {
					t.Errorf("%s %v: riding Sim %d cycles / %d instructions, RunModes %d / %d",
						at, mode, g.Cycles, g.Instructions, w.Cycles, w.Instructions)
				}
				for st := range power.NumStructures {
					if math.Float64bits(g.Energy.Energy[st]) != math.Float64bits(w.Energy.Energy[st]) {
						t.Errorf("%s %v: %v energy %v, RunModes %v", at, mode, power.Structure(st),
							g.Energy.Energy[st], w.Energy.Energy[st])
					}
				}
			}

			before = hists.Emulations()
			h, err := hists.DynWidthHistogram(name, variant)
			if err != nil {
				t.Fatal(err)
			}
			if n := hists.Emulations() - before; n != 1 {
				t.Fatalf("%s: riding histogram cost %d emulations, want 1", at, n)
			}
			var standalone vrp.WidthHistogram
			m := emu.New(p)
			m.Sink = widthSink{&standalone}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if h != standalone {
				t.Errorf("%s: riding histogram %v, standalone pass %v", at, h.Count, standalone.Count)
			}
		}
	}
}
