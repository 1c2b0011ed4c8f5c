package main

import (
	"fmt"

	"opgate"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/store"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
	"opgate/internal/vrs"
	"opgate/internal/workload"
)

// paperThresholds is the VRS grid the full experiment set evaluates
// (Figs. 8-11); the session's own threshold is 50.
var paperThresholds = []float64{110, 90, 70, 50, 30}

// sweepFigures and sweepGrid define sweep-analysis: the analysis figures
// over a dense threshold grid. None of them calls the timing model.
var (
	sweepFigures = []string{"fig4", "fig5", "fig6", "fig7"}
	sweepGrid    = []float64{110, 100, 90, 80, 70, 60, 50, 40, 30}
)

// modeGroups are the gating-mode sets the harness accrues in one fused
// timing pass each.
var modeGroups = [...][]power.GatingMode{
	{power.GateNone},
	{power.GateSoftware},
	{power.GateHWSize, power.GateHWSignificance},
	{power.GateCooperative, power.GateCooperativeSig},
}

// variantUse is one program variant the experiment set reads and the mode
// groups it is simulated under.
type variantUse struct {
	variant string
	groups  []int // indexes into modeGroups
}

// suiteVariants lists, per workload, every variant the full experiment set
// captures and the timing passes it reads: baseline ungated (Figs. 3-11)
// and under the hardware schemes (Figs. 13-14); VRP and VRS at the
// session threshold under software and cooperative gating (Figs. 8-11,
// 15); the other VRS thresholds under software gating; the conventional
// VRP binary for width histograms only (Fig. 2).
var suiteVariants = []variantUse{
	{"base", []int{0, 2}},
	{"vrp", []int{1, 3}},
	{"vrp-conv", nil},
	{"vrs110", []int{1}},
	{"vrs90", []int{1}},
	{"vrs70", []int{1}},
	{"vrs50", []int{1, 3}},
	{"vrs30", []int{1}},
}

// sweepVariants lists the variants the analysis sweep captures: the base
// and VRP binaries (Fig. 7) and one VRS binary per grid threshold.
func sweepVariants() []variantUse {
	vs := []variantUse{{variant: "base"}, {variant: "vrp"}}
	for _, th := range sweepGrid {
		vs = append(vs, variantUse{variant: vrsName(th)})
	}
	return vs
}

func vrsName(th float64) string { return fmt.Sprintf("vrs%g", th) }

// synthetics names the generated programs a seed selects: one program per
// progen family at the small size class.
func synthetics(seed uint64) ([]string, error) {
	return opgate.ExpandSynthetics("narrow,wide,pointer,branchy,stream,churn", seed, "small", true)
}

// workloadNames is the evaluated set: the eight kernels, then the seed's
// generated programs.
func workloadNames(seed uint64) ([]string, error) {
	syn, err := synthetics(seed)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return append(names, syn...), nil
}

// built is one workload's programs with every variant a pass needs.
type built struct {
	train, ref *prog.Program
	variants   map[string]*prog.Program
}

// buildPrograms generates every workload's train and ref programs, the
// set-up work every workload pays.
func buildPrograms(names []string) error {
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, c := range []workload.InputClass{workload.Train, workload.Ref} {
			if _, err := w.Build(c); err != nil {
				return fmt.Errorf("build %s/%v: %w", name, c, err)
			}
		}
	}
	return nil
}

// stageCounts are the stage pass's work counts outside its spans.
type stageCounts struct {
	emulations int64
	captureB   int64
	profiles   int64
	encodes    int64
	decodes    int64
}

// stagePass drives every workload through each layer in turn, one span
// per call: build, VRP, VRS profile and select, emulation with trace
// capture (or, from a filled store, fetch and decode), record scan and
// event replay, then one timing pass per mode group. With encode set it
// encodes each fresh capture as the store would; with timing unset it
// stops before the timing model.
func stagePass(tr *Tracer, names []string, uses []variantUse, thresholds []float64,
	from *store.DirBackend, encode, timing bool) (stageCounts, error) {
	var c stageCounts
	cfg, params := uarch.DefaultConfig(), power.DefaultParams()
	for _, name := range names {
		root, endRoot := tr.Begin("stages."+name, 0)
		b, err := buildVariants(tr, root, name, thresholds, uses, &c)
		if err != nil {
			return c, err
		}
		for _, u := range uses {
			p := b.variants[u.variant]
			identity := store.ProgramIdentity(p)
			var t *emu.Trace
			if from != nil {
				key := store.TraceKey(name, u.variant, workload.Ref.String(), identity)
				data, ok := from.Get(key)
				if !ok {
					return c, fmt.Errorf("stages: %s/%s: not in the filled store", name, u.variant)
				}
				_, end := tr.Begin("store.decode", root)
				t, err = store.DecodeTrace(data, p, identity)
				end(int64(len(data)))
				if err != nil {
					return c, fmt.Errorf("stages: decode %s/%s: %w", name, u.variant, err)
				}
				c.decodes++
			} else {
				_, end := tr.Begin("emu.new", root)
				m := emu.New(p)
				end(0)
				rec := emu.NewTraceRecorder(p)
				m.Sink = rec
				_, end = tr.Begin("emu.run", root)
				err = m.Run()
				end(m.Dyn)
				if err != nil {
					return c, fmt.Errorf("stages: emulate %s/%s: %w", name, u.variant, err)
				}
				if t, err = rec.Trace(); err != nil {
					return c, fmt.Errorf("stages: capture %s/%s: %w", name, u.variant, err)
				}
				c.emulations++
				c.captureB += t.Bytes()
				if encode {
					_, end := tr.Begin("store.encode", root)
					blob := store.EncodeTrace(t, identity)
					end(int64(len(blob)))
					c.encodes++
				}
			}
			_, end := tr.Begin("emu.records", root)
			var recs int64
			t.Records(emu.RecFunc(func(b emu.RecBatch) { recs += int64(b.Len()) }))
			end(recs)
			if recs != t.Len() {
				return c, fmt.Errorf("stages: %s/%s: %d records of %d events", name, u.variant, recs, t.Len())
			}
			_, end = tr.Begin("emu.replay", root)
			t.Replay(emu.FuncSink(func(emu.Event) {}))
			end(t.Len())
			if !timing {
				continue
			}
			for _, g := range u.groups {
				modes := modeGroups[g]
				_, end := tr.Begin(fmt.Sprintf("uarch.pass%d", len(modes)), root)
				_, err := uarch.ReplayModes(t, cfg, params, modes)
				end(t.Len())
				if err != nil {
					return c, fmt.Errorf("stages: timing %s/%s: %w", name, u.variant, err)
				}
			}
		}
		endRoot(0)
	}
	return c, nil
}

// buildVariants builds a workload's programs and the variants uses names,
// through the same public calls and options the harness makes.
func buildVariants(tr *Tracer, parent int64, name string, thresholds []float64,
	uses []variantUse, c *stageCounts) (*built, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	b := &built{variants: map[string]*prog.Program{}}
	_, end := tr.Begin("workload.build", parent)
	if b.train, err = w.Build(workload.Train); err == nil {
		b.ref, err = w.Build(workload.Ref)
	}
	end(2)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	b.variants["base"] = b.ref
	want := map[string]bool{}
	for _, u := range uses {
		want[u.variant] = true
	}
	for _, m := range []struct {
		variant string
		mode    vrp.Mode
	}{{"vrp", vrp.Useful}, {"vrp-conv", vrp.Conventional}} {
		if !want[m.variant] {
			continue
		}
		_, end := tr.Begin("vrp.analyze", parent)
		r, err := vrp.Analyze(b.ref, vrp.Options{Mode: m.mode})
		if err == nil {
			b.variants[m.variant] = r.Apply()
		}
		end(1)
		if err != nil {
			return nil, fmt.Errorf("vrp %s: %w", name, err)
		}
	}
	_, end = tr.Begin("vrs.profile", parent)
	pf, err := vrs.NewProfile(b.train, b.ref, vrs.Options{Power: power.DefaultParams()})
	end(1)
	if err != nil {
		return nil, fmt.Errorf("vrs profile %s: %w", name, err)
	}
	c.profiles++
	for _, th := range thresholds {
		_, end := tr.Begin("vrs.select", parent)
		r, err := pf.Select(th)
		if err == nil {
			b.variants[vrsName(th)] = r.Apply()
		}
		end(1)
		if err != nil {
			return nil, fmt.Errorf("vrs %s@%g: %w", name, th, err)
		}
	}
	return b, nil
}

// simWork returns the fixed simulated workload of one job, in dynamic
// instructions: for the suite, the sum over every (workload, variant,
// gating mode) cell the experiment set reads of that variant's dynamic
// instruction count, including the opcode-set ablation's software-gated
// runs; for the sweep, the instructions of every variant it emulates. It
// depends only on the programs, so fusing, caching or skipping timing
// passes cannot lower it.
func simWork(names []string, sweep bool) (float64, error) {
	ths, uses := paperThresholds, suiteVariants
	if sweep {
		ths, uses = sweepGrid, sweepVariants()
	}
	var work float64
	for _, name := range names {
		b, err := buildVariants(nil, 0, name, ths, uses, &stageCounts{})
		if err != nil {
			return 0, err
		}
		dyn := func(p *prog.Program) (float64, error) {
			m := emu.New(p)
			if err := m.Run(); err != nil {
				return 0, fmt.Errorf("sim work %s: %w", name, err)
			}
			return float64(m.Dyn), nil
		}
		for _, u := range uses {
			if !sweep && len(u.groups) == 0 {
				continue // captured for histograms only, never timed
			}
			d, err := dyn(b.variants[u.variant])
			if err != nil {
				return 0, err
			}
			if sweep {
				work += d
			}
			for _, g := range u.groups {
				work += d * float64(len(modeGroups[g]))
			}
		}
		if sweep {
			continue
		}
		for _, set := range []*isa.OpcodeSet{isa.BaseOpcodeSet(), isa.PaperOpcodeSet(), isa.FullOpcodeSet()} {
			r, err := vrp.Analyze(b.ref, vrp.Options{Mode: vrp.Useful, Opcodes: set})
			if err != nil {
				return 0, err
			}
			d, err := dyn(r.Apply())
			if err != nil {
				return 0, err
			}
			work += d
		}
	}
	return work, nil
}
