package vrp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"opgate/internal/interval"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/progen"
	"opgate/internal/workload"
)

// analysisDigest pins every fact the analysis publishes — the three range
// tables, the demanded bytes, the assigned widths and every def-use list —
// over the eight kernels (train and ref) and every progen family at seeds
// 1..10 (Small), under five option sets. A change to the analysis' data
// structures must leave it unchanged; a change to its results must update
// it deliberately.
const analysisDigest = "287e3bd65b94633878e58b5ae18a649fa1abc511a31d2553f12d90aa5bc16980"

// digestOptions are the option sets the oracle covers: both modes, each
// ablation switch, and the unrestricted opcode set.
func digestOptions() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"useful", Options{Mode: Useful}},
		{"conventional", Options{Mode: Conventional}},
		{"no-loop", Options{Mode: Useful, DisableLoopAnalysis: true}},
		{"no-branch", Options{Mode: Useful, DisableBranchRefinement: true}},
		{"full-opcodes", Options{Mode: Useful, Opcodes: isa.FullOpcodeSet()}},
	}
}

// digestPrograms builds the oracle's inputs in a fixed order.
func digestPrograms(t testing.TB) (names []string, progs []*prog.Program) {
	for _, w := range workload.All() {
		for _, c := range []workload.InputClass{workload.Train, workload.Ref} {
			p, err := w.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("%s/%d", w.Name, c))
			progs = append(progs, p)
		}
	}
	for _, f := range progen.Families() {
		for seed := uint64(1); seed <= 10; seed++ {
			p, err := progen.Generate(f, seed, progen.Small, false)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("%s/%d", f, seed))
			progs = append(progs, p)
		}
	}
	return names, progs
}

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashInterval(h hash.Hash, iv interval.Interval) {
	if iv.IsEmpty() {
		h.Write([]byte{0})
		return
	}
	h.Write([]byte{1})
	hashInt(h, iv.Lo)
	hashInt(h, iv.Hi)
}

func hashList(h hash.Hash, xs []int) {
	hashInt(h, int64(len(xs)))
	for _, x := range xs {
		hashInt(h, int64(x))
	}
}

// hashResult feeds every published fact of r into h.
func hashResult(h hash.Hash, r *Result) {
	for i := range r.Prog.Ins {
		hashInterval(h, r.ResRange[i])
		hashInterval(h, r.RaRange[i])
		hashInterval(h, r.RbRange[i])
		hashInt(h, int64(r.Demand[i]))
		hashInt(h, int64(r.Width[i]))
	}
	for fi, f := range r.Prog.Funcs {
		du := r.DefUse[fi]
		for i := f.Start; i < f.End; i++ {
			hashList(h, du.Uses(i))
			for reg := 0; reg < isa.NumRegs; reg++ {
				hashList(h, du.ReachingDefs(i, isa.Reg(reg)))
			}
		}
	}
}

func TestAnalysisDigest(t *testing.T) {
	names, progs := digestPrograms(t)
	h := sha256.New()
	for _, o := range digestOptions() {
		for i, p := range progs {
			r, err := Analyze(p, o.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", o.name, names[i], err)
			}
			fmt.Fprintf(h, "%s %s\n", o.name, names[i])
			hashResult(h, r)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != analysisDigest {
		t.Fatalf("analysis digest %s, want %s", got, analysisDigest)
	}
}
