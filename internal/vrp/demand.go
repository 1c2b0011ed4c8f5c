package vrp

import (
	"opgate/internal/isa"
	"opgate/internal/prog"
)

// The "useful" backward analysis (§2.2.5). For every value-producing
// instruction it computes the number of low-order bytes of the result that
// can influence observable behaviour. A use that only inspects low bytes —
// a byte store, an AND with a low mask, a MSKL — propagates a small demand
// to its producers; two's-complement add/sub/logical/shift-left/multiply
// pass demand through unchanged, because their low k output bytes depend
// only on the low k input bytes. That is exactly the paper's example: the
// chain of instructions feeding "AND R1, 0xFF, R2" need compute just one
// byte.
//
// Demands are monotone (start at 1, only grow, capped at 8), so the
// fixpoint over def-use chains terminates quickly.

// computeDemand fills r.Demand. Conventional mode demands everything.
func (r *Result) computeDemand() {
	p := r.Prog
	n := len(p.Ins)
	for i := 0; i < n; i++ {
		r.Demand[i] = 1
	}
	if r.Opts.Mode == Conventional {
		for i := 0; i < n; i++ {
			r.Demand[i] = 8
		}
		return
	}
	for fi := range p.Funcs {
		r.demandFunc(fi)
	}
}

func (r *Result) demandFunc(fi int) {
	p := r.Prog
	f := p.Funcs[fi]
	du := r.DefUse[fi]

	for changed := true; changed; {
		changed = false
		for i := f.End - 1; i >= f.Start; i-- {
			in := &p.Ins[i]
			dreg, ok := in.Dest()
			if !ok {
				continue
			}
			d := 1
			for _, u := range du.Uses(i) {
				d = max(d, r.useDemand(u, dreg))
				if d >= 8 {
					break
				}
			}
			if d > r.Demand[i] {
				r.Demand[i] = d
				changed = true
			}
		}
	}
}

// useDemand returns how many low bytes of register reg the instruction at
// useIdx needs, given the demand on that instruction's own result.
func (r *Result) useDemand(useIdx int, reg isa.Reg) int {
	p := r.Prog
	u := &p.Ins[useIdx]

	// Pseudo-uses at calls and returns observe full width.
	for _, pr := range prog.PseudoUses(u.Op) {
		if pr == reg {
			return 8
		}
	}

	k := 8
	if _, hasDest := u.Dest(); hasDest {
		k = r.Demand[useIdx]
	}

	d := 0
	if u.Ra == reg {
		d = max(d, r.operandDemand(u, true, k))
	}
	if !u.HasImm && u.Rb == reg {
		d = max(d, r.operandDemand(u, false, k))
	}
	if isa.ClassOf(u.Op) == isa.ClassCmov && u.Rd == reg {
		// The old destination value may be preserved wholesale into the
		// result: it needs as many bytes as the result does.
		d = max(d, k)
	}
	return d
}

// operandDemand gives the demand contribution of one operand position.
// first selects Ra (true) or Rb (false); k is the demand on the user's own
// result.
func (r *Result) operandDemand(u *isa.Instruction, first bool, k int) int {
	switch u.Op {
	case isa.OpLDA:
		// Address/constant arithmetic behaves like ADD.
		return k
	case isa.OpLD:
		return 8 // address
	case isa.OpST:
		if first {
			return 8 // address
		}
		return u.Width.Bytes() // stored data: only the stored bytes

	case isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpXOR:
		// Low k output bytes depend only on low k input bytes.
		return k
	case isa.OpAND:
		if !first && u.HasImm {
			return 0 // immediate has no register operand
		}
		if first && u.HasImm {
			// Bytes of the input above the mask's top byte are zeroed.
			return min(k, topUsedByteAnd(u.Imm))
		}
		return k
	case isa.OpOR, isa.OpBIC:
		if first && u.HasImm {
			// Bytes where the mask is 0xFF are forced (OR) or cleared
			// (BIC); the input only matters below the top non-0xFF byte.
			return min(k, topUsedByteOrBic(u.Imm))
		}
		return k

	case isa.OpSLL:
		if first {
			return k // bits only move upward
		}
		return 1 // shift amount: 0..63
	case isa.OpSRL, isa.OpSRA:
		if first {
			if u.HasImm {
				s := int(u.Imm & 63)
				return min(8, (8*k+s+7)/8)
			}
			return 8 // variable amount: any byte may flow down
		}
		return 1

	case isa.OpMSKL:
		return min(k, u.Width.Bytes())
	case isa.OpSEXT:
		return min(max(k, 1), u.Width.Bytes())
	case isa.OpEXTB:
		if first {
			if u.HasImm {
				return min(8, int(u.Imm&7)+1)
			}
			return 8
		}
		return 1 // byte selector

	case isa.OpCMPEQ, isa.OpCMPLT, isa.OpCMPLE, isa.OpCMPULT, isa.OpCMPULE:
		// Comparisons observe the whole value. (Width assignment later
		// narrows the compare itself when both ranges fit.)
		return 8
	case isa.OpCMOVEQ, isa.OpCMOVNE, isa.OpCMOVLT, isa.OpCMOVGE:
		if first {
			return 8 // condition: full sign/zero test
		}
		return k // moved data

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBGT, isa.OpBLE:
		return 8 // branch condition: full test
	case isa.OpRET, isa.OpJSR:
		return 8
	case isa.OpOUT:
		return u.Width.Bytes()
	case isa.OpBR, isa.OpHALT:
		return 0
	}
	return 8
}

// topUsedByteAnd returns the highest byte of the input that an AND with
// mask can expose (1..8).
func topUsedByteAnd(mask int64) int {
	if mask < 0 {
		return 8 // sign-extended mask covers the top byte
	}
	um := uint64(mask)
	for b := 7; b >= 1; b-- {
		if um>>(8*uint(b)) != 0 {
			return b + 1
		}
	}
	return 1
}

// topUsedByteOrBic returns the highest input byte that can pass through an
// OR/BIC with mask: bytes where the mask is 0xFF are fully forced/cleared.
func topUsedByteOrBic(mask int64) int {
	um := uint64(mask)
	for b := 7; b >= 0; b-- {
		if (um>>(8*uint(b)))&0xFF != 0xFF {
			return b + 1
		}
	}
	return 1
}
