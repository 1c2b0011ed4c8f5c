package emu_test

import (
	"reflect"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/prog"
	"opgate/internal/workload"
)

// record is one retirement record: a row of an emu.RecBatch.
type record struct {
	Idx, Next               int32
	Op, WBytes, Flags       uint8
	Addr, Value, SrcA, SrcB int64
}

// collector retains a copy of every record it consumes, plus the batch
// sizes it saw (the batch itself is machine-owned and reused).
type collector struct {
	recs    []record
	batches []int
}

func (c *collector) ConsumeRecs(b emu.RecBatch) {
	for i := range b.Idx {
		c.recs = append(c.recs, record{
			Idx: b.Idx[i], Next: b.Next[i],
			Op: b.Op[i], WBytes: b.WBytes[i], Flags: b.Flags[i],
			Addr: b.Addr[i], Value: b.Value[i], SrcA: b.SrcA[i], SrcB: b.SrcB[i],
		})
	}
	c.batches = append(c.batches, b.Len())
}

// events collects Trace.Replay's Events, plus the batch sizes it saw.
type events struct {
	evs     []emu.Event
	batches []int
}

func (e *events) Consume(batch []emu.Event) {
	e.evs = append(e.evs, batch...)
	e.batches = append(e.batches, len(batch))
}

// branchyProgram exercises every record column: memory traffic, taken and
// not-taken branches, calls, and output.
const branchyProgram = `
.data
buf: .space 64
.text
.func main
	lda r1, =buf
	lda r2, 0(rz)
loop:
	st.w r2, 0(r1)
	ld.w r3, 0(r1)
	jsr bump
	add r2, r2, #1
	cmplt r4, r2, #10
	bne r4, loop
	out.b r2
	halt
.func bump
	add r5, r5, #2
	ret
`

// TestBatchedRunMatchesStepStream is the tentpole equivalence check: the
// batched Run dispatch loop must deliver byte-for-byte the same record
// stream as executing the same program one Step at a time (each Step
// flushes its record immediately, a one-record batch).
func TestBatchedRunMatchesStepStream(t *testing.T) {
	programs := map[string]func(t *testing.T) *prog.Program{
		"branchy": func(t *testing.T) *prog.Program { return assembleProg(t, branchyProgram) },
		"compress": func(t *testing.T) *prog.Program {
			w, err := workload.ByName("compress")
			if err != nil {
				t.Fatal(err)
			}
			p, err := w.Build(workload.Train)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, build := range programs {
		t.Run(name, func(t *testing.T) {
			p := build(t)

			var batched collector
			mb := emu.New(p)
			mb.Sink = &batched
			if err := mb.Run(); err != nil {
				t.Fatal(err)
			}

			var stepped collector
			ms := emu.New(p)
			ms.Sink = &stepped
			for !ms.Halted {
				if err := ms.Step(); err != nil {
					t.Fatal(err)
				}
			}

			if len(batched.recs) != len(stepped.recs) {
				t.Fatalf("batched run delivered %d records, stepped run %d",
					len(batched.recs), len(stepped.recs))
			}
			for i := range batched.recs {
				if batched.recs[i] != stepped.recs[i] {
					t.Fatalf("record %d differs:\nbatched: %+v\nstepped: %+v",
						i, batched.recs[i], stepped.recs[i])
				}
			}
			// Every stepped batch is a single record; the batched run must
			// have actually used multi-record batches.
			for _, n := range stepped.batches {
				if n != 1 {
					t.Fatalf("Step delivered a batch of %d records, want 1", n)
				}
			}
			if len(batched.recs) > 1 {
				max := 0
				for _, n := range batched.batches {
					if n > max {
						max = n
					}
				}
				if max < 2 {
					t.Fatalf("Run delivered %d records but no batch larger than %d — batching is not happening",
						len(batched.recs), max)
				}
			}
			if mb.Dyn != ms.Dyn || !reflect.DeepEqual(mb.Regs, ms.Regs) {
				t.Fatalf("architectural state diverged: dyn %d vs %d", mb.Dyn, ms.Dyn)
			}
		})
	}
}

// TestFuncSinkMatchesBatchOrder: a trace's Replay through the per-event
// FuncSink adapter rebuilds the live record stream in retirement order,
// every field of every Event, with Ins pointing into the program.
func TestFuncSinkMatchesBatchOrder(t *testing.T) {
	p := assembleProg(t, branchyProgram)

	var live collector
	rec := emu.NewTraceRecorder(p)
	rec.SetRider(&live)
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}

	var viaFunc []emu.Event
	tr.Replay(emu.FuncSink(func(ev emu.Event) { viaFunc = append(viaFunc, ev) }))
	if len(viaFunc) != len(live.recs) {
		t.Fatalf("FuncSink replay delivered %d events, the live run %d records", len(viaFunc), len(live.recs))
	}
	for i, r := range live.recs {
		want := emu.Event{
			Idx: int(r.Idx), Ins: &p.Ins[r.Idx], Next: int(r.Next), Taken: r.Flags&emu.RecTaken != 0,
			Addr: r.Addr, Value: r.Value, SrcA: r.SrcA, SrcB: r.SrcB,
		}
		if viaFunc[i] != want {
			t.Fatalf("event %d = %+v, want %+v (from record %+v)", i, viaFunc[i], want, r)
		}
	}
}

// TestResetReusesMemoryImage: after a run dirtied memory, Reset must
// restore the exact initial image (the dirty-page tracking must not leave
// stale bytes behind).
func TestResetReusesMemoryImage(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	m := emu.New(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), m.Output...)

	m.Reset()
	fresh := emu.New(p)
	if !reflect.DeepEqual(m.Mem, fresh.Mem) {
		t.Fatal("Reset left stale memory compared to a fresh machine")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Output, first) {
		t.Fatalf("second run output %x differs from first %x", m.Output, first)
	}
}

func assembleProg(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
