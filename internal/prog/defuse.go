package prog

import (
	"slices"

	"opgate/internal/isa"
)

// Def-use analysis at the register level within one function, via classic
// reaching definitions over basic blocks. Definitions are (instruction
// index, register) pairs; JSR kills the caller-saved state conservatively
// (return and argument registers may be rewritten by the callee).

// DefUse holds reaching-definition chains for one function, densely
// indexed by instruction offset within the function.
type DefUse struct {
	Fn *Func
	// The operand uses of instruction Fn.Start+k are entries
	// useOff[k]..useOff[k+1]-1 of useReg (the register read) and
	// useDefs (its reaching definitions: a sorted list of defining
	// instruction indices, where -1 denotes "live-in to the function").
	useOff  []int
	useReg  []isa.Reg
	useDefs [][]int
	// uses[k] lists, in ascending order, the instructions reading the
	// value defined at Fn.Start+k.
	uses [][]int
}

// defState maps every register to its reaching definitions at a program
// point: a sorted set of instruction indices (-1 for live-in). Sets are
// never mutated once built, so states share them freely; copying a
// defState is assignment.
type defState [isa.NumRegs][]int

// unionDefs returns the sorted union of two reaching-definition sets,
// reusing an operand when it already is the union.
func unionDefs(a, b []int) []int {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	case slices.Equal(a, b):
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// callClobbered lists registers conservatively rewritten by a call.
var callClobbered = func() []isa.Reg {
	regs := []isa.Reg{RegRet, RegLink}
	for r := RegArg0; r <= RegArg5; r++ {
		regs = append(regs, r)
	}
	// r1..r8 are caller-saved temporaries in this convention.
	for r := isa.Reg(1); r <= 8; r++ {
		regs = append(regs, r)
	}
	return regs
}()

// CallClobbered exposes the caller-saved register list (used by VRP to
// invalidate ranges across calls).
func CallClobbered() []isa.Reg { return callClobbered }

// calleeVisible lists registers a callee may legitimately read: arguments,
// the stack and global pointers, and every callee-saved register (which the
// callee may spill — a full-width observation). The demand analysis treats
// a JSR as a full-width pseudo-use of these, so values flowing into calls
// are never narrowed below their significant bytes.
var calleeVisible = func() []isa.Reg {
	regs := []isa.Reg{RegSP, RegGP}
	for r := RegArg0; r <= RegArg5; r++ {
		regs = append(regs, r)
	}
	for r := isa.Reg(9); r <= 15; r++ {
		regs = append(regs, r)
	}
	for r := isa.Reg(22); r <= 25; r++ {
		regs = append(regs, r)
	}
	regs = append(regs, isa.Reg(27), isa.Reg(28))
	return regs
}()

// returnVisible lists registers a caller may read after this function
// returns: the return value, the preserved callee-saved set, and the stack
// and global pointers. RET is a full-width pseudo-use of these.
var returnVisible = func() []isa.Reg {
	regs := []isa.Reg{RegRet, RegSP, RegGP}
	for r := isa.Reg(9); r <= 15; r++ {
		regs = append(regs, r)
	}
	for r := isa.Reg(22); r <= 25; r++ {
		regs = append(regs, r)
	}
	regs = append(regs, isa.Reg(27), isa.Reg(28))
	return regs
}()

// PseudoUses returns the registers conservatively read by control-transfer
// instructions beyond their explicit operands.
func PseudoUses(op isa.Op) []isa.Reg {
	switch op {
	case isa.OpJSR:
		return calleeVisible
	case isa.OpRET:
		return returnVisible
	}
	return nil
}

// BuildDefUse computes use-def and def-use chains for f.
func BuildDefUse(p *Program, f *Func) *DefUse {
	n := f.End - f.Start
	// self[k] is the one-element set {f.Start+k}: a definition kills
	// every other reaching def of its register. The full slice
	// expression caps each set so no append can reach its neighbour.
	self := make([]int, n)
	for k := range self {
		self[k] = f.Start + k
	}
	// step applies instruction i's definitions to s.
	step := func(s *defState, i int) {
		def := self[i-f.Start : i-f.Start+1 : i-f.Start+1]
		ins := &p.Ins[i]
		if ins.Op == isa.OpJSR {
			for _, r := range callClobbered {
				s[r] = def
			}
			return
		}
		if d, ok := ins.Dest(); ok {
			s[d] = def
		}
	}

	// Entry block: every register live-in.
	liveIn := []int{-1}
	var entry defState
	for r := range entry {
		entry[r] = liveIn
	}

	// Reaching definitions per block, to the least fixpoint. done[b]
	// marks a block whose out state is computed from its current in.
	in := make([]defState, len(f.Blocks))
	out := make([]defState, len(f.Blocks))
	done := make([]bool, len(f.Blocks))
	rpo := f.RPOBlocks()
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			// Meet: union of predecessor outs (entry keeps live-ins).
			var merged defState
			if b == f.Blocks[0] {
				merged = entry
			}
			for _, pred := range b.Preds {
				po := &out[pred.ID]
				for r := range merged {
					merged[r] = unionDefs(merged[r], po[r])
				}
			}
			if done[b.ID] && statesEqual(&merged, &in[b.ID]) {
				continue
			}
			in[b.ID] = merged
			for i := b.Start; i < b.End; i++ {
				step(&merged, i)
			}
			if !done[b.ID] || !statesEqual(&merged, &out[b.ID]) {
				out[b.ID] = merged
				changed = true
			}
			done[b.ID] = true
		}
	}

	// Second pass: walk the blocks in layout order recording each use's
	// reaching definitions and, per definition, its uses. Uses are
	// visited in ascending instruction order, so every uses list comes
	// out sorted.
	du := &DefUse{
		Fn:     f,
		useOff: make([]int, 1, n+1),
		uses:   make([][]int, n),
	}
	for _, b := range f.Blocks {
		cur := in[b.ID]
		for i := b.Start; i < b.End; i++ {
			first := len(du.useReg)
			record := func(r isa.Reg) {
				if r == isa.ZeroReg || slices.Contains(du.useReg[first:], r) {
					return
				}
				defs := cur[r]
				du.useReg = append(du.useReg, r)
				du.useDefs = append(du.useDefs, defs)
				for _, d := range defs {
					if d >= 0 {
						du.uses[d-f.Start] = append(du.uses[d-f.Start], i)
					}
				}
			}
			ins := &p.Ins[i]
			uses, nu := ins.Uses()
			for k := 0; k < nu; k++ {
				record(uses[k])
			}
			for _, r := range PseudoUses(ins.Op) {
				record(r)
			}
			du.useOff = append(du.useOff, len(du.useReg))
			step(&cur, i)
		}
	}
	return du
}

// statesEqual reports whether two def states hold the same sets.
func statesEqual(a, b *defState) bool {
	for r := range a {
		if !slices.Equal(a[r], b[r]) {
			return false
		}
	}
	return true
}

// Uses returns the instructions consuming the value defined at defIdx
// (the paper's Uses(I, r)).
func (du *DefUse) Uses(defIdx int) []int {
	k := defIdx - du.Fn.Start
	if k < 0 || k >= len(du.uses) {
		return nil
	}
	return du.uses[k]
}

// ReachingDefs returns the definitions reaching the use of reg at insIdx.
func (du *DefUse) ReachingDefs(insIdx int, reg isa.Reg) []int {
	k := insIdx - du.Fn.Start
	if k < 0 || k >= len(du.useOff)-1 {
		return nil
	}
	for j := du.useOff[k]; j < du.useOff[k+1]; j++ {
		if du.useReg[j] == reg {
			defs := du.useDefs[j]
			return defs[:len(defs):len(defs)]
		}
	}
	return nil
}
