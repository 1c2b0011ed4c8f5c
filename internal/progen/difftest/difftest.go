// Package difftest asserts the simulation substrate's core equivalence
// invariants on arbitrary generated programs:
//
//   - batched Run, per-Step execution and a captured trace's Records
//     deliver the same record stream, every column, which agrees with
//     the program's semantics, and the same architectural outcome;
//     Trace.Replay rebuilds every Event field from it;
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
	"encoding/binary"
	"fmt"
	"math"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/uarch"
)

// record is one retirement record: a row of an emu.RecBatch.
type record struct {
	Idx, Next               int32
	Op, WBytes, Flags       uint8
	Addr, Value, SrcA, SrcB int64
}

// records collects every record of a stream, copying each row out of the
// (reused) batches.
type records []record

// ConsumeRecs implements emu.RecSink.
func (r *records) ConsumeRecs(b emu.RecBatch) {
	for i := range b.Idx {
		*r = append(*r, record{
			Idx: b.Idx[i], Next: b.Next[i],
			Op: b.Op[i], WBytes: b.WBytes[i], Flags: b.Flags[i],
			Addr: b.Addr[i], Value: b.Value[i], SrcA: b.SrcA[i], SrcB: b.SrcB[i],
		})
	}
}

// outcome is the observable result of one execution: the retirement
// record stream plus the architectural end state.
type outcome struct {
	recs   records
	output []byte
	mem    []byte
	dyn    int64
	regs   [32]int64
}

// runBatched executes p with the batched dispatch loop, its records
// streamed through a TraceRecorder's rider, and checks the stream against
// the program's semantics. It returns the captured trace too.
func runBatched(p *prog.Program) (*outcome, *emu.Trace, error) {
	o := &outcome{}
	m := emu.New(p)
	initial := append([]byte(nil), m.Mem...)
	rec := emu.NewTraceRecorder(p)
	rec.SetRider(&o.recs)
	m.Sink = rec
	if err := m.Run(); err != nil {
		return nil, nil, fmt.Errorf("batched run: %w", err)
	}
	o.finish(m)
	if int64(len(o.recs)) != m.Dyn {
		return nil, nil, fmt.Errorf("batched run: %d records for %d retired instructions", len(o.recs), m.Dyn)
	}
	if err := checkSemantics(p, o.recs, initial, o.mem); err != nil {
		return nil, nil, fmt.Errorf("batched run: %w", err)
	}
	tr, err := rec.Trace()
	if err != nil {
		return nil, nil, fmt.Errorf("trace capture: %w", err)
	}
	return o, tr, nil
}

// runStepped executes p one Step at a time.
func runStepped(p *prog.Program) (*outcome, error) {
	o := &outcome{}
	m := emu.New(p)
	m.Sink = &o.recs
	for !m.Halted {
		if err := m.Step(); err != nil {
			return nil, fmt.Errorf("stepped run: %w", err)
		}
	}
	o.finish(m)
	return o, nil
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
	if err := diffRecs(a.recs, b.recs, aName, bName); err != nil {
		return err
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

// diffRecs explains the first difference between two record streams,
// comparing every column, or returns nil.
func diffRecs(a, b records, aName, bName string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s delivered %d records, %s %d", aName, len(a), bName, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("record %d differs: %s %+v, %s %+v", i, aName, a[i], bName, b[i])
		}
	}
	return nil
}

// checkSemantics checks a record stream against p's semantics: static
// columns match the instruction, Next is the following record's Idx,
// exactly the taken branches (judged from op and SrcA) carry RecTaken, a
// store's Value is its data (SrcB) cut to width, and replaying the stores
// over the initial memory image yields the final one.
func checkSemantics(p *prog.Program, recs records, initial, final []byte) error {
	mem := initial
	for i, r := range recs {
		in := &p.Ins[r.Idx]
		_, writes := in.Dest()
		if isa.Op(r.Op) != in.Op || r.WBytes != uint8(in.Width) || (r.Flags&emu.RecWritesDest != 0) != writes {
			return fmt.Errorf("record %d %+v: static columns do not match %v", i, r, *in)
		}
		if i+1 < len(recs) && recs[i+1].Idx != r.Next {
			return fmt.Errorf("record %d: next %d, but record %d retired %d", i, r.Next, i+1, recs[i+1].Idx)
		}
		taken := in.Op == isa.OpBR || in.Op == isa.OpJSR || in.Op == isa.OpRET ||
			isa.IsCondBranch(in.Op) && isa.CondHolds(in.Op, r.SrcA)
		if (r.Flags&emu.RecTaken != 0) != taken {
			return fmt.Errorf("record %d %+v: taken flag wrong for %v", i, r, in.Op)
		}
		if in.Op == isa.OpST {
			off := r.Addr - p.DataBase
			if off < 0 || off > int64(len(mem))-int64(r.WBytes) {
				return fmt.Errorf("record %d %+v: store address outside memory", i, r)
			}
			var data [8]byte
			binary.LittleEndian.PutUint64(data[:], uint64(r.SrcB))
			copy(mem[off:], data[:r.WBytes])
			// 1<<64 is 0 in uint64, so a full-width store's mask is all ones.
			if uint64(r.Value) != uint64(r.SrcB)&(uint64(1)<<(8*r.WBytes)-1) {
				return fmt.Errorf("record %d %+v: store value is not its data", i, r)
			}
		}
	}
	if !bytes.Equal(mem, final) {
		return fmt.Errorf("replaying the store records does not reproduce the final memory")
	}
	return nil
}

// checkReplay requires tr.Replay to rebuild every record of recs as an
// Event, with Ins pointing at the program's own instruction.
func checkReplay(p *prog.Program, tr *emu.Trace, recs records) error {
	i := 0
	var err error
	tr.Replay(emu.FuncSink(func(ev emu.Event) {
		if err == nil && i < len(recs) {
			r := recs[i]
			if ev != (emu.Event{Idx: int(r.Idx), Ins: &p.Ins[r.Idx], Next: int(r.Next), Taken: r.Flags&emu.RecTaken != 0,
				Addr: r.Addr, Value: r.Value, SrcA: r.SrcA, SrcB: r.SrcB}) {
				err = fmt.Errorf("replayed event %d %+v, record %+v", i, ev, r)
			}
		}
		i++
	}))
	if err == nil && i != len(recs) {
		err = fmt.Errorf("replay delivered %d events for %d records", i, len(recs))
	}
	return err
}

// CheckExec asserts the execution-equivalence invariant on p: the batched
// Run loop, the per-Step wrapper and a captured trace's Records must
// produce identical record streams (every column) and identical
// architectural outcomes (output, registers, memory, retired count); the
// stream must agree with p's semantics, and Trace.Replay must rebuild it
// as Events. The timing core fed the captured trace's records must then
// match a live pass bit for bit in every gating mode.
func CheckExec(p *prog.Program) error {
	batched, tr, err := runBatched(p)
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
	var fromTrace records
	tr.Records(&fromTrace)
	if err := diffRecs(batched.recs, fromTrace, "run", "trace"); err != nil {
		return fmt.Errorf("run vs trace records: %w", err)
	}
	if err := checkReplay(p, tr, batched.recs); err != nil {
		return fmt.Errorf("replay: %w", err)
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
	_, tr, err := runBatched(p)
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
// the record stream of a fresh emu.New and end in the same architectural
// state (output, registers, every memory byte) — no page prev wrote, and
// none of prev's predecode, may leak through. It reports whether the acquired
// machine was prev's: sync.Pool may drop a released machine, so callers
// tally reuse across a sweep.
func CheckPooled(prev, p *prog.Program) (reused bool, err error) {
	fresh, _, err := runBatched(p)
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
	m.Sink = &pooled.recs
	if err := m.Run(); err != nil {
		return reused, fmt.Errorf("pooled run (reused %v): %w", reused, err)
	}
	pooled.finish(m)
	if err := diff(fresh, pooled, "fresh", "pooled"); err != nil {
		return reused, fmt.Errorf("fresh vs pooled (reused %v): %w", reused, err)
	}
	return reused, nil
}
