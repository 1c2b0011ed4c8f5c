package emu_test

import (
	"errors"
	"reflect"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/workload"
)

// teeSink hands each record batch to the recorder, then to a live
// collector.
type teeSink struct {
	rec  *emu.TraceRecorder
	live *collector
}

func (s teeSink) ConsumeRecs(b emu.RecBatch) {
	s.rec.ConsumeRecs(b)
	s.live.ConsumeRecs(b)
}

// recordTrace runs p once with a TraceRecorder attached and returns the
// capture alongside the live record stream a plain collector saw.
func recordTrace(t *testing.T, p *prog.Program) (*emu.Trace, *collector) {
	t.Helper()
	var live collector
	rec := emu.NewTraceRecorder(p)
	m := emu.New(p)
	m.Sink = teeSink{rec, &live}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr, &live
}

// TestTraceReplayMatchesLive is the trace layer's tentpole invariant: the
// replayed Events must describe the live record stream exactly — every
// field identical, Ins pointing into the program — in the same batching
// shape.
func TestTraceReplayMatchesLive(t *testing.T) {
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
			tr, live := recordTrace(t, p)

			if tr.Len() != int64(len(live.recs)) {
				t.Fatalf("trace recorded %d records, live run delivered %d", tr.Len(), len(live.recs))
			}
			var replayed events
			tr.Replay(&replayed)
			if len(replayed.evs) != len(live.recs) {
				t.Fatalf("replay delivered %d events, live %d records", len(replayed.evs), len(live.recs))
			}
			for i, r := range live.recs {
				ev := replayed.evs[i]
				if ev.Idx != int(r.Idx) || ev.Ins != &p.Ins[r.Idx] || ev.Next != int(r.Next) ||
					ev.Taken != (r.Flags&emu.RecTaken != 0) || ev.Addr != r.Addr ||
					ev.Value != r.Value || ev.SrcA != r.SrcA || ev.SrcB != r.SrcB {
					t.Fatalf("event %d differs:\nreplay: %+v\nlive:   %+v", i, ev, r)
				}
			}
			if !reflect.DeepEqual(replayed.batches, live.batches) {
				t.Fatalf("replay batch shape %v differs from live %v", replayed.batches, live.batches)
			}
			// A second replay must deliver the same stream again (the
			// trace is immutable).
			var again events
			tr.Replay(&again)
			if !reflect.DeepEqual(again.evs, replayed.evs) {
				t.Fatal("second replay differs from first")
			}
		})
	}
}

// TestRecordsCarryOpWidthAndFlags: the folded-in columns must agree with
// the instruction each record retired, and the taken flag with the
// control flow — record consumers never need the instruction to learn
// op, width, destination-write or branch outcome.
func TestRecordsCarryOpWidthAndFlags(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	_, live := recordTrace(t, p)

	taken := 0
	for i, r := range live.recs {
		in := &p.Ins[r.Idx]
		if isa.Op(r.Op) != in.Op || r.WBytes != uint8(in.Width) {
			t.Fatalf("record %d op/width (%d,%d) != instruction (%v,%v)", i, r.Op, r.WBytes, in.Op, in.Width)
		}
		_, writes := in.Dest()
		if got := r.Flags&emu.RecWritesDest != 0; got != writes {
			t.Fatalf("record %d writes-dest %v != instruction %v", i, got, writes)
		}
		if r.Flags&emu.RecTaken != 0 {
			taken++
			if in.Op != isa.OpRET && int(r.Next) != in.Target {
				t.Fatalf("record %d taken but next %d != target %d", i, r.Next, in.Target)
			}
		} else if int(r.Next) != int(r.Idx)+1 && in.Op != isa.OpHALT {
			t.Fatalf("record %d not taken but next %d != %d", i, r.Next, r.Idx+1)
		}
	}
	if taken == 0 {
		t.Fatal("no record carried the taken flag")
	}
}

// TestPackerMatchesTraceRecords: the records a live machine emits must be
// the records a captured trace streams back.
func TestPackerMatchesTraceRecords(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)
	var fromTrace collector
	tr.Records(&fromTrace)

	var live collector
	m := emu.New(p)
	m.Sink = &live
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.recs, fromTrace.recs) {
		t.Fatal("live record stream differs from trace records")
	}
}

// TestTraceBudgetOverflow: a capture that would exceed its byte budget is
// abandoned — memory is released, Trace() reports the overflow, and the
// recorder stays a valid (inert) sink.
func TestTraceBudgetOverflow(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(workload.Train)
	if err != nil {
		t.Fatal(err)
	}
	rec := emu.NewTraceRecorder(p)
	rec.SetBudget(1) // below one chunk: overflows on the first event
	m := emu.New(p)
	m.Sink = rec
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Trace(); !errors.Is(err, emu.ErrTraceBudget) {
		t.Fatalf("over-budget capture: err = %v, want ErrTraceBudget", err)
	}
}

// TestProfilerRecordsMatchAttach: feeding the profiler from packed trace
// records must produce the identical value tables as attaching it to a
// live run as the machine's sink.
func TestProfilerRecordsMatchAttach(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	points := []int{2, 3, 5} // store, load, add inside the loop

	tr, _ := recordTrace(t, p)
	fromRecs := emu.NewProfiler(points)
	tr.Records(fromRecs)

	fromAttach := emu.NewProfiler(points)
	m := emu.New(p)
	m.Sink = fromAttach
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, idx := range points {
		a, b := fromRecs.Points[idx], fromAttach.Points[idx]
		if a.Total != b.Total {
			t.Fatalf("point %d totals differ: %d vs %d", idx, a.Total, b.Total)
		}
		if !reflect.DeepEqual(a.Entries(), b.Entries()) {
			t.Fatalf("point %d entries differ: %v vs %v", idx, a.Entries(), b.Entries())
		}
	}
}

// TestRiderSeesEveryRecord: a recorder's rider must see exactly the record
// stream a plain live pass sees, whether the capture fits its budget,
// overflows mid-run (the rider keeps reading past the dropped chunks) or
// is over budget from the first event.
func TestRiderSeesEveryRecord(t *testing.T) {
	// ~60k events: the capture needs two chunks.
	p := assembleProg(t, `
.data
buf: .space 8
.text
.func main
	lda r1, =buf
	lda r2, 0(rz)
loop:
	st.w r2, 0(r1)
	add r2, r2, #1
	cmplt r3, r2, #15000
	bne r3, loop
	halt
`)
	var live collector
	m := emu.New(p)
	m.Sink = &live
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(live.recs) <= emu.TraceChunkEvents {
		t.Fatalf("program retired %d records, want more than one chunk", len(live.recs))
	}
	for _, c := range []struct {
		name     string
		budget   int64
		captured bool
	}{
		{"fits", 0, true},
		{"overflows mid-run", int64(emu.TraceChunkEvents) * 43, false}, // one chunk at 43 bytes a record
		{"over budget at once", 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var rode collector
			rec := emu.NewTraceRecorder(p)
			rec.SetBudget(c.budget)
			rec.SetRider(&rode)
			m := emu.New(p)
			m.Sink = rec
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rode, live) {
				t.Fatalf("rider saw %d records, the live pass %d (or the records or batches differ)",
					len(rode.recs), len(live.recs))
			}
			tr, err := rec.Trace()
			if !c.captured {
				if !errors.Is(err, emu.ErrTraceBudget) {
					t.Fatalf("err = %v, want ErrTraceBudget", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var fromTrace collector
			tr.Records(&fromTrace)
			if !reflect.DeepEqual(fromTrace.recs, live.recs) {
				t.Fatal("trace records differ from the rider's stream")
			}
		})
	}
}
