package opgate_test

import (
	"strings"
	"testing"

	"opgate"
	"opgate/internal/power"
	"opgate/internal/workload"
)

const tiny = `
.func main
	lda r1, 5(rz)
	add r2, r1, #3
	out.b r2
	halt
`

func TestAssembleAndRun(t *testing.T) {
	p, err := opgate.Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opgate.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 8 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestOptimizeVerifies(t *testing.T) {
	p, err := opgate.Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := opgate.Optimize(p, opgate.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.Summary(), "8b") {
		t.Errorf("summary: %s", opt.Summary())
	}
	// The tiny program's constants fit one byte.
	h := opt.Analysis.StaticHistogram()
	if h.Count[0] == 0 {
		t.Error("no byte-width instructions found")
	}
}

func TestOptimizeConventionalVsUseful(t *testing.T) {
	w, _ := workload.ByName("compress")
	p, _ := w.Build(workload.Train)
	conv, err := opgate.Optimize(p, opgate.OptimizeOptions{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	useful, err := opgate.Optimize(p, opgate.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hc, hu := conv.Analysis.StaticHistogram(), useful.Analysis.StaticHistogram()
	if hu.Count[3] > hc.Count[3] {
		t.Error("useful mode produced more 64-bit instructions than conventional")
	}
}

func TestSpecializeFacade(t *testing.T) {
	w, _ := workload.ByName("vortex")
	trainP, _ := w.Build(workload.Train)
	refP, _ := w.Build(workload.Ref)
	spec, err := opgate.Specialize(trainP, refP, opgate.SpecializeOptions{Threshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Result.NumSpecialized() == 0 {
		t.Error("vortex should specialize its record-status point")
	}
}

func TestSimulateAndCompare(t *testing.T) {
	p, err := opgate.Assemble(tiny)
	if err != nil {
		t.Fatal(err)
	}
	r, err := opgate.Simulate(p, opgate.SimOptions{Gating: power.GateNone})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.Instructions != 4 {
		t.Errorf("cycles %d instructions %d", r.Cycles, r.Instructions)
	}
	opt, _ := opgate.Optimize(p, opgate.OptimizeOptions{})
	energy, ed2, err := opgate.CompareGating(opt.Program, power.GateSoftware)
	if err != nil {
		t.Fatal(err)
	}
	if energy < 0 || ed2 < 0 {
		t.Errorf("gating made things worse: %v %v", energy, ed2)
	}
}

func TestDisassembleFacade(t *testing.T) {
	p, _ := opgate.Assemble(tiny)
	text := opgate.Disassemble(p)
	if !strings.Contains(text, "add") {
		t.Errorf("disassembly missing add:\n%s", text)
	}
}
