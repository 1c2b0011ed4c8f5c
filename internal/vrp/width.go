package vrp

import (
	"opgate/internal/interval"
	"opgate/internal/isa"
)

// Width assignment (§2, final step; §4.3 for the encodable subset): every
// instruction receives the narrowest opcode that preserves semantics.
//
// For a value-producing instruction the requirement is
//
//	width >= min(significant bytes of the result range,
//	             demanded bytes of the result)
//
// — if the result range fits the width, narrowing is lossless; if the
// demand is smaller than the range, the dropped bytes are, by the useful
// analysis, never observed. Right shifts additionally require the *input*
// to fit the width (their low output bytes depend on high input bytes).
// Comparisons require both inputs to fit. Loads, stores, masks, sign
// extensions and OUT have semantic widths fixed by the original program
// and are never reassigned; neither is anything the opcode set cannot
// encode (the fallback is the next wider encodable width).
func (r *Result) assignWidths() {
	p := r.Prog
	set := r.Opts.Opcodes
	for i := range p.Ins {
		in := &p.Ins[i]
		r.Width[i] = in.Width // default: keep

		class := isa.ClassOf(in.Op)
		switch class {
		case isa.ClassAdd, isa.ClassSub, isa.ClassMul, isa.ClassLogic,
			isa.ClassShift, isa.ClassCmov:
			if _, ok := in.Dest(); !ok {
				continue
			}
			res := r.ResRange[i]
			if res.IsEmpty() {
				continue // unreachable: keep the original width
			}
			need := min(res.Bytes(), r.Demand[i])
			if in.Op == isa.OpSRL || in.Op == isa.OpSRA {
				need = max(need, operandBytes(r.RaRange[i]))
			}
			w := set.Narrowest(class, isa.WidthForBytes(need))
			if w < in.Width {
				r.Width[i] = w
			}
		case isa.ClassCmp:
			if r.RaRange[i].IsEmpty() {
				continue
			}
			need := max(operandBytes(r.RaRange[i]), operandBytes(r.RbRange[i]))
			w := set.Narrowest(class, isa.WidthForBytes(need))
			if w < in.Width {
				r.Width[i] = w
			}
		default:
			// Semantic widths (memory, masks, OUT) and width-less
			// control flow stay as written.
		}
	}
}

// operandBytes is the significant size of an operand range; unknown
// (empty, from unreachable paths) is conservatively full width.
func operandBytes(iv interval.Interval) int {
	if iv.IsEmpty() {
		return 8
	}
	return iv.Bytes()
}
