package emu

import (
	"errors"
	"fmt"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// This file is the trace-capture/replay layer: the machine's retirement
// records are captured once into a packed trace and then streamed any
// number of times as RecBatch columns, or rebuilt as Events for
// consumers that want the instruction itself (Replay).
//
// Layout: records are stored column-wise (struct of arrays) in fixed-size
// chunks of TraceChunkEvents records. One record costs recBytes (43)
// bytes: two int32s (static index, next index), three bytes (op, width in
// bytes, flags), and four int64s (addr, value, srcA, srcB). A recorder
// refuses to grow past its byte budget (DefaultTraceBudget unless
// overridden): the capture is dropped, Trace() reports the overflow, and
// callers fall back to live emulation — a trace is an accelerator, never
// a correctness dependency.
//
// Every record is written once, by the dispatch loop into the machine's
// batch, and copied once, by a recorder into its chunk; a recorder's
// rider (SetRider) reads the machine's batch itself, whether the capture
// is kept or dropped.
//
// Invariant: Trace.Records must deliver the records a rider sees on the
// live run it captured, and Trace.Replay the Events those records
// describe, so any RecSink (the timing model included) can consume a
// replay in place of an emulation without observable difference.

// TraceChunkEvents is the number of records per packed-trace chunk
// (a multiple of BatchSize, so live batches never straddle chunks).
const TraceChunkEvents = 1 << 15

// recBytes is the packed per-record footprint: idx(4) + next(4) + op(1) +
// width(1) + flags(1) + addr/value/srcA/srcB (4×8).
const recBytes = 4 + 4 + 1 + 1 + 1 + 4*8

// DefaultTraceBudget caps one recorded trace at 64 MiB (~1.6M records),
// comfortably above the largest suite workload (~28 MB) while bounding a
// runaway capture to a few chunks' worth of error latency.
const DefaultTraceBudget = 64 << 20

// Record flag bits.
const (
	// RecTaken marks a taken branch (Event.Taken).
	RecTaken = 1 << 0
	// RecWritesDest marks an architectural destination write (the
	// instruction has a destination and it is not the zero register),
	// folded in so consumers need not re-derive it from the opcode.
	RecWritesDest = 1 << 1
)

// RecBatch is a struct-of-arrays view of consecutive packed records. All
// slices share one length; entry i describes the i-th retired instruction
// of the batch. Op and WBytes duplicate the static instruction's opcode
// and operand width in bytes, so record consumers (width histograms, the
// TNV profiler, power accounting) never dereference *isa.Instruction.
type RecBatch struct {
	Idx    []int32 // static instruction index
	Next   []int32 // index of the next instruction executed
	Op     []uint8 // isa.Op
	WBytes []uint8 // operand width in bytes (isa.Width value)
	Flags  []uint8 // RecTaken | RecWritesDest
	Addr   []int64 // effective address (loads/stores)
	Value  []int64 // result value (dest write, store data, or out)
	SrcA   []int64 // first source operand
	SrcB   []int64 // second source operand / store data
}

// Len returns the number of records in the batch.
func (b *RecBatch) Len() int { return len(b.Idx) }

// ragged reports whether the batch's columns differ in length.
func (b *RecBatch) ragged() bool {
	n := b.Len()
	return len(b.Next) != n || len(b.Op) != n || len(b.WBytes) != n || len(b.Flags) != n ||
		len(b.Addr) != n || len(b.Value) != n || len(b.SrcA) != n || len(b.SrcB) != n
}

// slice returns the sub-batch [lo, hi).
func (b *RecBatch) slice(lo, hi int) RecBatch {
	return RecBatch{
		Idx: b.Idx[lo:hi], Next: b.Next[lo:hi],
		Op: b.Op[lo:hi], WBytes: b.WBytes[lo:hi], Flags: b.Flags[lo:hi],
		Addr: b.Addr[lo:hi], Value: b.Value[lo:hi],
		SrcA: b.SrcA[lo:hi], SrcB: b.SrcB[lo:hi],
	}
}

// newRecBatch allocates a batch with n (zeroed) records.
func newRecBatch(n int) RecBatch {
	return RecBatch{
		Idx: make([]int32, n), Next: make([]int32, n),
		Op: make([]uint8, n), WBytes: make([]uint8, n), Flags: make([]uint8, n),
		Addr: make([]int64, n), Value: make([]int64, n),
		SrcA: make([]int64, n), SrcB: make([]int64, n),
	}
}

// copyAt copies the leading records of src into b from record off on and
// returns how many fit.
func (b *RecBatch) copyAt(off int, src RecBatch) int {
	n := copy(b.Idx[off:], src.Idx)
	copy(b.Next[off:], src.Next)
	copy(b.Op[off:], src.Op)
	copy(b.WBytes[off:], src.WBytes)
	copy(b.Flags[off:], src.Flags)
	copy(b.Addr[off:], src.Addr)
	copy(b.Value[off:], src.Value)
	copy(b.SrcA[off:], src.SrcA)
	copy(b.SrcB[off:], src.SrcB)
	return n
}

// RecSink consumes packed record batches. The batch's backing arrays may
// be owned by a machine or a recorder and reused; consumers must not
// retain or modify them.
type RecSink interface {
	ConsumeRecs(batch RecBatch)
}

// RecFunc adapts a function to the RecSink interface, so one-off record
// consumers stay inline.
type RecFunc func(RecBatch)

// ConsumeRecs implements RecSink.
func (f RecFunc) ConsumeRecs(b RecBatch) { f(b) }

// recMeta is the per-static-instruction metadata folded into each record.
type recMeta struct {
	op     isa.Op
	wbytes uint8
	flags  uint8 // RecWritesDest when the instruction writes a register
}

// metaFor derives one instruction's record metadata: the machine's
// predecode and restore validation both go through it.
func metaFor(in *isa.Instruction) recMeta {
	m := recMeta{op: in.Op, wbytes: uint8(in.Width)}
	if _, ok := in.Dest(); ok {
		m.flags = RecWritesDest
	}
	return m
}

// TraceRecorder is a RecSink that captures a retirement stream into a
// packed trace. Attach it to a machine, run, then call Trace(). An
// optional rider consumes the same batches after they are captured.
type TraceRecorder struct {
	p      *prog.Program
	budget int64
	bytes  int64
	chunks []RecBatch // full-capacity columns; all but the last are full
	fill   int        // records in the last chunk
	events int64
	off    bool    // over budget: the capture is dropped
	rider  RecSink // sees every record, captured or not
}

// NewTraceRecorder returns a recorder for programs executing p, with the
// default memory budget.
func NewTraceRecorder(p *prog.Program) *TraceRecorder {
	return &TraceRecorder{p: p, budget: DefaultTraceBudget}
}

// SetBudget overrides the recorder's byte budget (<= 0 keeps the default).
func (r *TraceRecorder) SetBudget(bytes int64) {
	if bytes > 0 {
		r.budget = bytes
	}
}

// SetRider makes rs consume every record of the stream, in order: each
// batch right after it is copied into the trace, and after an overflow
// too, so the rider never misses the tail.
func (r *TraceRecorder) SetRider(rs RecSink) { r.rider = rs }

// ConsumeRecs implements RecSink: it copies the batch onto the current
// chunk, growing chunk-by-chunk until the budget is hit, after which the
// capture is abandoned (and its memory released); then it hands the same
// batch to the rider.
func (r *TraceRecorder) ConsumeRecs(b RecBatch) {
	for lo := 0; lo < b.Len() && !r.off; {
		if len(r.chunks) == 0 || r.fill == TraceChunkEvents {
			if r.bytes+TraceChunkEvents*recBytes > r.budget {
				r.off = true
				r.chunks = nil // release what was captured
				break
			}
			r.chunks = append(r.chunks, newRecBatch(TraceChunkEvents))
			r.bytes += TraceChunkEvents * recBytes
			r.fill = 0
		}
		n := r.chunks[len(r.chunks)-1].copyAt(r.fill, b.slice(lo, b.Len()))
		r.fill += n
		r.events += int64(n)
		lo += n
	}
	if r.rider != nil {
		r.rider.ConsumeRecs(b)
	}
}

// ErrTraceBudget marks a capture abandoned for exceeding its memory
// budget — the one expected TraceRecorder failure. Callers distinguish it
// (errors.Is) from genuine capture defects, which must propagate.
var ErrTraceBudget = errors.New("trace capture exceeded the memory budget")

// Trace returns the captured trace, or an error wrapping ErrTraceBudget
// when the capture exceeded the memory budget (callers should fall back
// to live emulation).
func (r *TraceRecorder) Trace() (*Trace, error) {
	if r.off {
		return nil, fmt.Errorf("emu: %w (%d bytes) after %d events",
			ErrTraceBudget, r.budget, r.events)
	}
	chunks := append([]RecBatch(nil), r.chunks...)
	if len(chunks) > 0 {
		last := len(chunks) - 1
		chunks[last] = chunks[last].slice(0, r.fill)
	}
	return &Trace{p: r.p, chunks: chunks, events: r.events, bytes: r.bytes}, nil
}

// Trace is an immutable packed retirement trace: the full observable
// stream of one program execution, replayable into any RecSink or Sink.
type Trace struct {
	p      *prog.Program
	chunks []RecBatch
	events int64
	bytes  int64
}

// Len returns the number of recorded events.
func (t *Trace) Len() int64 { return t.events }

// Bytes returns the resident size of the packed trace.
func (t *Trace) Bytes() int64 { return t.bytes }

// Program returns the program the trace was captured from.
func (t *Trace) Program() *prog.Program { return t.p }

// Records streams the packed record batches (one per chunk) into rs, in
// retirement order. This is the fast path for consumers that only need
// packed fields; no Events are materialised.
func (t *Trace) Records(rs RecSink) {
	for i := range t.chunks {
		if t.chunks[i].Len() > 0 {
			rs.ConsumeRecs(t.chunks[i])
		}
	}
}

// Event is one retired instruction rebuilt from its record by
// Trace.Replay, for consumers that want the instruction itself.
type Event struct {
	Idx   int              // static instruction index
	Ins   *isa.Instruction // the instruction (points into the program)
	Next  int              // index of the next instruction to execute
	Taken bool             // branch outcome (conditional branches)
	Addr  int64            // effective address (loads/stores)
	Value int64            // result value (dest write, store data, or out)
	SrcA  int64            // value of first source operand
	SrcB  int64            // value of second source operand / store data
}

// Sink receives Trace.Replay's Events in batches. The batch slice is
// reused: consumers must not retain it past the call (copy events out if
// they need to).
type Sink interface {
	Consume(batch []Event)
}

// FuncSink adapts a per-event function to Sink, so one-off replay
// consumers stay one-liners: t.Replay(emu.FuncSink(func(ev emu.Event) {...})).
type FuncSink func(Event)

// Consume delivers each event of the batch to the wrapped function in
// retirement order.
func (f FuncSink) Consume(batch []Event) {
	for i := range batch {
		f(batch[i])
	}
}

// Replay rebuilds the recorded stream as Events — every record's fields,
// with Ins pointing at the program's instruction — and delivers them to
// sink in BatchSize batches. The batch buffer is reused across calls to
// sink.Consume.
func (t *Trace) Replay(sink Sink) {
	ins := t.p.Ins
	buf := make([]Event, BatchSize)
	n := 0
	for ci := range t.chunks {
		c := &t.chunks[ci]
		idxs := c.Idx
		if len(idxs) == 0 {
			continue
		}
		// Co-slicing the columns to one length lets the loop index them
		// without per-column bounds checks.
		nexts := c.Next[:len(idxs)]
		flags := c.Flags[:len(idxs)]
		addrs := c.Addr[:len(idxs)]
		values := c.Value[:len(idxs)]
		srcAs := c.SrcA[:len(idxs)]
		srcBs := c.SrcB[:len(idxs)]
		for i := range idxs {
			idx := idxs[i]
			ev := &buf[n]
			ev.Idx = int(idx)
			ev.Ins = &ins[idx]
			ev.Next = int(nexts[i])
			ev.Taken = flags[i]&RecTaken != 0
			ev.Addr = addrs[i]
			ev.Value = values[i]
			ev.SrcA = srcAs[i]
			ev.SrcB = srcBs[i]
			n++
			if n == BatchSize {
				sink.Consume(buf)
				n = 0
			}
		}
	}
	if n > 0 {
		sink.Consume(buf[:n])
	}
}
