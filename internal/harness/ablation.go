package harness

import (
	"context"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/workload"
)

// ablationConfig is one row of an ablation: an analysis configuration
// applied to every workload.
type ablationConfig struct {
	label string
	opts  vrp.Options
}

// opcodeAblation holds AblationOpcodeSets' rows: the unextended base ISA
// (only memory and mask operations carry widths), the paper's chosen
// extension set, and an idealised ISA with every class encodable at
// every width, each under the proposed (useful-range) VRP.
var opcodeAblation = []ablationConfig{
	{"base ISA (no ALU widths)", vrp.Options{Mode: vrp.Useful, Opcodes: isa.BaseOpcodeSet()}},
	{"paper extension set", vrp.Options{Mode: vrp.Useful, Opcodes: isa.PaperOpcodeSet()}},
	{"ideal (all widths)", vrp.Options{Mode: vrp.Useful, Opcodes: isa.FullOpcodeSet()}},
}

// analysisAblation holds AblationAnalysis' rows: the proposed VRP, then
// with each analysis component removed.
var analysisAblation = []ablationConfig{
	{"full (proposed VRP)", vrp.Options{Mode: vrp.Useful}},
	{"no useful ranges", vrp.Options{Mode: vrp.Conventional}},
	{"no loop analysis", vrp.Options{Mode: vrp.Useful, DisableLoopAnalysis: true}},
	{"no branch refinement", vrp.Options{Mode: vrp.Useful, DisableBranchRefinement: true}},
	{"ranges only (all off)", vrp.Options{Mode: vrp.Conventional,
		DisableLoopAnalysis: true, DisableBranchRefinement: true}},
}

// AblationOpcodeSets quantifies §4.3's design decision: how much of the
// gating benefit depends on which narrow opcodes the ISA encodes
// (opcodeAblation's three points).
func (s *Suite) AblationOpcodeSets(ctx context.Context) (*Report, error) {
	rep := &Report{
		ID:      "ablation-opcodes",
		Title:   "Opcode-set ablation: energy savings and 64-bit share under VRP",
		Unit:    "fraction",
		Columns: []string{"energy saved", "64-bit share"},
		Percent: true,
	}
	type point struct {
		saved float64
		hist  vrp.WidthHistogram
	}
	for _, cfg := range opcodeAblation {
		points, err := mapNames(ctx, s, func(name string) (point, error) {
			var pt point
			ap, err := s.ablate(name, cfg.opts, true)
			if err != nil {
				return pt, err
			}
			base, err := s.Baseline(name)
			if err != nil {
				return pt, err
			}
			_, pt.saved = power.Savings(base.Energy, ap.sim.Energy)
			pt.hist = ap.hist
			return pt, nil
		})
		if err != nil {
			return nil, err
		}
		var savedSum float64
		var hist vrp.WidthHistogram
		for _, pt := range points {
			savedSum += pt.saved
			for i := 0; i < 4; i++ {
				hist.Count[i] += pt.hist.Count[i]
			}
		}
		rep.Rows = append(rep.Rows, Row{
			Label:  cfg.label,
			Values: []float64{savedSum / float64(len(points)), hist.Fraction(3)},
		})
	}
	rep.Note = "the paper's set should capture most of the ideal set's benefit (§4.3: few 16-bit ops, MUL not worth encoding)"
	return rep, nil
}

// AblationAnalysis quantifies the contribution of the paper's analysis
// machinery: useful ranges (§2.2.5), loop trip counts (§2.3) and branch
// refinement (§2.2.4), measured as the 64-bit dynamic share when each is
// removed.
func (s *Suite) AblationAnalysis(ctx context.Context) (*Report, error) {
	rep := &Report{
		ID:      "ablation-analysis",
		Title:   "Analysis ablation: dynamic 64-bit share",
		Unit:    "fraction",
		Columns: []string{"64-bit share"},
		Percent: true,
	}
	for _, cfg := range analysisAblation {
		points, err := mapNames(ctx, s, func(name string) (ablationPoint, error) {
			return s.ablate(name, cfg.opts, false)
		})
		if err != nil {
			return nil, err
		}
		var hist vrp.WidthHistogram
		for _, pt := range points {
			for i := 0; i < 4; i++ {
				hist.Count[i] += pt.hist.Count[i]
			}
		}
		rep.Rows = append(rep.Rows, Row{Label: cfg.label, Values: []float64{hist.Fraction(3)}})
	}
	return rep, nil
}

// ablationPoint is one workload's result under one ablation
// configuration.
type ablationPoint struct {
	hist vrp.WidthHistogram
	sim  *uarch.Result // software-gated simulation; nil unless timed
}

// ablate evaluates a workload's binary under an analysis
// configuration: its dynamic width histogram and, when timed, its
// software-gated simulation. A binary identical to a cached variant reads
// the suite's memoized results. A one-off binary costs one live
// emulation feeding both consumers; measured traffic never repeats one,
// so it is neither memoized, stored, nor counted by Emulations.
func (s *Suite) ablate(name string, opts vrp.Options, timed bool) (ablationPoint, error) {
	var pt ablationPoint
	variant, q, err := s.ablationProgram(name, opts)
	if err != nil {
		return pt, err
	}
	if variant != "" {
		if timed {
			if pt.sim, err = s.Sim(name, variant, power.GateSoftware); err != nil {
				return pt, err
			}
		}
		pt.hist, err = s.DynWidthHistogram(name, variant)
		return pt, err
	}
	var rs emu.RecSink = widthSink{&pt.hist}
	var sim *uarch.Sim
	if timed {
		sim, err = uarch.NewMulti(q, s.Uarch, s.Power, []power.GatingMode{power.GateSoftware})
		if err != nil {
			return pt, err
		}
		tally := rs
		rs = emu.RecFunc(func(b emu.RecBatch) {
			sim.ConsumeRecs(b)
			tally.ConsumeRecs(b)
		})
	}
	m := emu.Acquire(q)
	defer m.Release()
	m.Sink = rs
	if err := m.Run(); err != nil {
		return pt, err
	}
	if timed {
		pt.sim = sim.FinishAll()[0]
	}
	return pt, nil
}

// ablationProgram resolves a workload's binary under an analysis
// configuration: the base, vrp or vrp-conv variant when the binaries are
// byte-identical (store.ProgramIdentity), else the one-off program
// itself. Trace-backed workloads have no analyzable binary and are gated
// like Suite.VRP.
func (s *Suite) ablationProgram(name string, opts vrp.Options) (string, *prog.Program, error) {
	if workload.IsTrace(name) {
		return "", nil, traceOnlyErr(name, "ablation analysis")
	}
	if v := suiteVariant(opts); v != "" {
		return v, nil, nil
	}
	p, err := s.Program(name, s.evalClass())
	if err != nil {
		return "", nil, err
	}
	r, err := vrp.Analyze(p, opts)
	if err != nil {
		return "", nil, err
	}
	q := r.Apply()
	id := store.ProgramIdentity(q)
	for _, v := range []string{"base", "vrp", "vrp-conv"} {
		vp, err := s.variantProgram(name, v)
		if err != nil {
			return "", nil, err
		}
		if store.ProgramIdentity(vp) == id {
			return v, nil, nil
		}
	}
	return "", q, nil
}

// suiteVariant names the variant an analysis configuration builds by
// construction: the suite's own VRP options (Suite.VRP: the paper's
// opcode set, every analysis component, default bounds) give vrp in
// Useful mode and vrp-conv in Conventional mode. Any other configuration
// yields "".
func suiteVariant(o vrp.Options) string {
	if o.Opcodes != nil && *o.Opcodes != *isa.PaperOpcodeSet() {
		return ""
	}
	o.Opcodes = nil
	switch o {
	case vrp.Options{Mode: vrp.Useful}:
		return "vrp"
	case vrp.Options{Mode: vrp.Conventional}:
		return "vrp-conv"
	}
	return ""
}
