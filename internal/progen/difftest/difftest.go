// Package difftest asserts the simulation substrate's core equivalence
// invariants on arbitrary generated programs:
//
//   - batched Run, per-Step execution and Trace.Replay deliver the same
//     retirement stream and the same architectural outcome;
//   - a fused uarch.RunModes pass is bit-identical to independent
//     per-mode uarch.Run calls;
//   - uarch.ReplayModes fed the captured trace's records is bit-identical
//     to uarch.RunModes on the live emulation;
//   - a pooled machine (emu.Acquire after another program's Release)
//     runs exactly like a fresh emu.New.
//
// The eight hand-built kernels exercise these invariants on 16 fixed
// (workload, input) points; driven by progen seeds, difftest turns them
// into properties over an unbounded program space. The package is shared
// by the differential unit tests, the FuzzDiffExec native fuzz target and
// the CI seed sweep.
package difftest

import (
	"bytes"
	"fmt"
	"math"

	"opgate/internal/emu"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/uarch"
)

// outcome is the observable result of one execution: the flattened
// retirement stream plus the architectural end state.
type outcome struct {
	events []emu.Event
	output []byte
	mem    []byte
	dyn    int64
	regs   [32]int64
}

// collect copies every retired event out of the machine-owned batches.
func collect(events *[]emu.Event) emu.Sink {
	return emu.FuncSink(func(ev emu.Event) { *events = append(*events, ev) })
}

// runBatched executes p with the batched dispatch loop.
func runBatched(p *prog.Program) (*outcome, error) {
	o := &outcome{}
	m := emu.New(p)
	m.Sink = collect(&o.events)
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("batched run: %w", err)
	}
	o.finish(m)
	return o, nil
}

// runStepped executes p one Step at a time.
func runStepped(p *prog.Program) (*outcome, error) {
	o := &outcome{}
	m := emu.New(p)
	m.Sink = collect(&o.events)
	for !m.Halted {
		if err := m.Step(); err != nil {
			return nil, fmt.Errorf("stepped run: %w", err)
		}
	}
	o.finish(m)
	return o, nil
}

// runReplayed executes p once while recording a packed trace, then
// replays the trace; the returned outcome pairs the replayed stream with
// the live run's architectural end state, and the trace is returned for
// the record-fed timing check.
func runReplayed(p *prog.Program) (*outcome, *emu.Trace, error) {
	o := &outcome{}
	m := emu.New(p)
	rec := emu.NewTraceRecorder(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		return nil, nil, fmt.Errorf("capture run: %w", err)
	}
	tr, err := rec.Trace()
	if err != nil {
		return nil, nil, fmt.Errorf("trace capture: %w", err)
	}
	if tr.Len() != m.Dyn {
		return nil, nil, fmt.Errorf("trace length %d != %d retired instructions", tr.Len(), m.Dyn)
	}
	tr.Replay(collect(&o.events))
	o.finish(m)
	return o, tr, nil
}

func (o *outcome) finish(m *emu.Machine) {
	o.output = append([]byte(nil), m.Output...)
	o.mem = append([]byte(nil), m.Mem...)
	o.dyn = m.Dyn
	o.regs = m.Regs
}

// diff explains the first difference between two outcomes, or returns nil.
func diff(a, b *outcome, aName, bName string) error {
	if a.dyn != b.dyn {
		return fmt.Errorf("%s retired %d instructions, %s %d", aName, a.dyn, bName, b.dyn)
	}
	if len(a.events) != len(b.events) {
		return fmt.Errorf("%s delivered %d events, %s %d", aName, len(a.events), bName, len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			return fmt.Errorf("event %d differs: %s %+v, %s %+v", i, aName, a.events[i], bName, b.events[i])
		}
	}
	if !bytes.Equal(a.output, b.output) {
		return fmt.Errorf("output streams differ (%s %d bytes, %s %d bytes)", aName, len(a.output), bName, len(b.output))
	}
	if a.regs != b.regs {
		return fmt.Errorf("final register files differ")
	}
	if !bytes.Equal(a.mem, b.mem) {
		return fmt.Errorf("final memories differ")
	}
	return nil
}

// CheckExec asserts the execution-equivalence invariant on p: the batched
// Run loop, the per-Step wrapper and a captured-trace Replay must produce
// identical retirement streams (every Event field) and identical
// architectural outcomes (output, registers, memory, retired count). The
// timing core fed the captured trace's records must then match a live
// pass bit for bit in every gating mode.
func CheckExec(p *prog.Program) error {
	batched, err := runBatched(p)
	if err != nil {
		return err
	}
	stepped, err := runStepped(p)
	if err != nil {
		return err
	}
	if err := diff(batched, stepped, "run", "step"); err != nil {
		return fmt.Errorf("run vs step: %w", err)
	}
	replayed, tr, err := runReplayed(p)
	if err != nil {
		return err
	}
	if err := diff(batched, replayed, "run", "replay"); err != nil {
		return fmt.Errorf("run vs replay: %w", err)
	}
	live, err := uarch.RunModes(p, uarch.DefaultConfig(), power.DefaultParams(), power.Modes())
	if err != nil {
		return fmt.Errorf("live RunModes: %w", err)
	}
	return checkReplayModes(tr, live)
}

// checkReplayModes requires uarch.ReplayModes over tr's records to be
// bit-identical to live, the RunModes results over every gating mode on
// the traced program.
func checkReplayModes(tr *emu.Trace, live []*uarch.Result) error {
	modes := power.Modes()
	replayed, err := uarch.ReplayModes(tr, uarch.DefaultConfig(), power.DefaultParams(), modes)
	if err != nil {
		return fmt.Errorf("ReplayModes: %w", err)
	}
	for i, mode := range modes {
		if err := sameResult(replayed[i], live[i], "replay", "live", mode); err != nil {
			return err
		}
	}
	return nil
}

// sameResult requires bit-identical timing and accounting between two
// simulation results of one program.
func sameResult(a, b *uarch.Result, aName, bName string, mode power.GatingMode) error {
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.IPC != b.IPC || a.BranchMissRate != b.BranchMissRate ||
		a.L1DMissRate != b.L1DMissRate || a.L1IMissRate != b.L1IMissRate {
		return fmt.Errorf("mode %v: timing differs (%s %d cycles, %s %d)", mode, aName, a.Cycles, bName, b.Cycles)
	}
	if a.Energy.Cycles != b.Energy.Cycles {
		return fmt.Errorf("mode %v: meter cycles differ", mode)
	}
	for s := range a.Energy.Energy {
		if math.Float64bits(a.Energy.Energy[s]) != math.Float64bits(b.Energy.Energy[s]) {
			return fmt.Errorf("mode %v: %v energy differs: %s %v, %s %v",
				mode, power.Structure(s), aName, a.Energy.Energy[s], bName, b.Energy.Energy[s])
		}
	}
	if a.Energy.Accesses != b.Energy.Accesses {
		return fmt.Errorf("mode %v: access counts differ: %s %v, %s %v", mode, aName, a.Energy.Accesses, bName, b.Energy.Accesses)
	}
	return nil
}

// CheckFusedModes asserts the fused-accounting invariant on p: one
// RunModes pass over every gating mode must be bit-identical — cycles,
// per-structure energy, access counts — to independent per-mode Run
// calls, and to ReplayModes over the captured trace.
func CheckFusedModes(p *prog.Program) error {
	cfg := uarch.DefaultConfig()
	params := power.DefaultParams()
	modes := power.Modes()
	fused, err := uarch.RunModes(p, cfg, params, modes)
	if err != nil {
		return fmt.Errorf("fused RunModes: %w", err)
	}
	for i, mode := range modes {
		solo, err := uarch.Run(p, cfg, params, mode)
		if err != nil {
			return fmt.Errorf("solo run (%v): %w", mode, err)
		}
		if err := sameResult(fused[i], solo, "fused", "solo", mode); err != nil {
			return err
		}
	}
	_, tr, err := runReplayed(p)
	if err != nil {
		return err
	}
	return checkReplayModes(tr, fused)
}

// Check generates the (family, seed, class) train and ref programs and
// asserts the execution-equivalence invariant on both.
func Check(f progen.Family, seed uint64, c progen.Class) error {
	for _, ref := range []bool{false, true} {
		p, err := progen.Generate(f, seed, c, ref)
		if err != nil {
			return err
		}
		if err := CheckExec(p); err != nil {
			return fmt.Errorf("%s/%s/%d ref=%v: %w", f, c, seed, ref, err)
		}
	}
	return nil
}

// CheckPhased generates the phase-structured composite's train and ref
// programs and asserts the execution-equivalence invariant on both —
// the same property Check asserts, over the non-stationary program
// space.
func CheckPhased(families []progen.Family, seed uint64, c progen.Class) error {
	for _, ref := range []bool{false, true} {
		p, _, err := progen.GeneratePhased(families, seed, c, ref)
		if err != nil {
			return err
		}
		if err := CheckExec(p); err != nil {
			return fmt.Errorf("phase/%s/%s/%d ref=%v: %w", progen.PhaseLabel(families), c, seed, ref, err)
		}
	}
	return nil
}

// CheckFlip generates the width-flip program's train and ref variants
// and asserts the execution-equivalence invariant on both.
func CheckFlip(period int, seed uint64, c progen.Class) error {
	for _, ref := range []bool{false, true} {
		p, err := progen.GenerateFlip(period, seed, c, ref)
		if err != nil {
			return err
		}
		if err := CheckExec(p); err != nil {
			return fmt.Errorf("flip/%d/%s/%d ref=%v: %w", period, c, seed, ref, err)
		}
	}
	return nil
}

// CheckPooled asserts the pooled-machine invariant on p: run on a machine
// acquired right after prev ran on a released one, p must retire exactly
// the stream of a fresh emu.New and end in the same architectural state
// (output, registers, every memory byte) — no page prev wrote, and none
// of prev's predecode, may leak through. It reports whether the acquired
// machine was prev's: sync.Pool may drop a released machine, so callers
// tally reuse across a sweep.
func CheckPooled(prev, p *prog.Program) (reused bool, err error) {
	fresh, err := runBatched(p)
	if err != nil {
		return false, err
	}
	d := emu.Acquire(prev)
	err = d.Run()
	d.Release()
	if err != nil {
		return false, fmt.Errorf("previous program: %w", err)
	}
	m := emu.Acquire(p)
	defer m.Release()
	reused = m == d
	pooled := &outcome{}
	m.Sink = collect(&pooled.events)
	if err := m.Run(); err != nil {
		return reused, fmt.Errorf("pooled run (reused %v): %w", reused, err)
	}
	pooled.finish(m)
	if err := diff(fresh, pooled, "fresh", "pooled"); err != nil {
		return reused, fmt.Errorf("fresh vs pooled (reused %v): %w", reused, err)
	}
	return reused, nil
}
