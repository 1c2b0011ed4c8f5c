package emu

import (
	"fmt"
	"math"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// This file is the trace rehydration path: a packed trace that was
// serialized (internal/store's codec streams the RecBatch columns) is
// reassembled into a live *Trace bound to the program it was captured
// from. Restoration validates every record against the program — a trace
// is only ever an accelerator, so a malformed or mismatched byte stream
// must become an error, never a panic or a silently wrong replay.

// NewTraceFromRecords rebuilds a packed trace for p from whole-trace
// record columns (typically decoded from a persistent store). All columns
// of recs must share one length; every record is validated against p:
// static and next indices must be in range, and the folded-in opcode,
// width and writes-dest flag must match the program's own instruction
// metadata, so a trace cannot be rebound to a program it was not captured
// from. The columns are copied into chunk-sized storage, so the caller
// keeps ownership of recs.
func NewTraceFromRecords(p *prog.Program, recs RecBatch) (*Trace, error) {
	n := recs.Len()
	if recs.ragged() {
		return nil, fmt.Errorf("emu: restore: ragged record columns")
	}
	meta := make([]recMeta, len(p.Ins))
	for i := range p.Ins {
		meta[i] = metaFor(&p.Ins[i])
	}
	for i := 0; i < n; i++ {
		idx := recs.Idx[i]
		if idx < 0 || int(idx) >= len(p.Ins) {
			return nil, fmt.Errorf("emu: restore: record %d: static index %d outside program (%d instructions)",
				i, idx, len(p.Ins))
		}
		if next := recs.Next[i]; next < 0 || int(next) >= len(p.Ins) {
			return nil, fmt.Errorf("emu: restore: record %d: next index %d outside program", i, next)
		}
		m := meta[idx]
		if isa.Op(recs.Op[i]) != m.op || recs.WBytes[i] != m.wbytes {
			return nil, fmt.Errorf("emu: restore: record %d: op/width %d/%d does not match program instruction %d (%d/%d)",
				i, recs.Op[i], recs.WBytes[i], idx, m.op, m.wbytes)
		}
		if fl := recs.Flags[i]; fl&^(RecTaken|RecWritesDest) != 0 || fl&RecWritesDest != m.flags {
			return nil, fmt.Errorf("emu: restore: record %d: flags %#x inconsistent with program instruction %d",
				i, fl, idx)
		}
	}

	// A recorder with no budget stores (and byte-accounts) a restored
	// trace exactly like a freshly captured one.
	r := &TraceRecorder{p: p, budget: math.MaxInt64}
	r.ConsumeRecs(recs)
	return r.Trace()
}
