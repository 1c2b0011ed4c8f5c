package difftest

import (
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
	"opgate/internal/progen"
)

// seedsPerFamily × NumFamilies is the CI differential sweep size; the
// acceptance floor is 100 seeds.
const seedsPerFamily = 17

// TestDifferentialSeedSweep: the substrate invariants (Run == Step ==
// Replay, identical architectural outcomes, record-fed ReplayModes ==
// live RunModes) hold across a 100+-seed grid of generated programs, on
// both input variants of every generation.
func TestDifferentialSeedSweep(t *testing.T) {
	for _, f := range progen.Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= seedsPerFamily; seed++ {
				if err := Check(f, seed, progen.Small); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecordStreamOracle: the record-stream oracle notices a wrong value
// in any column of any stream, a dropped taken flag, and wrong store
// data — even when every stream agrees, as they would if the emulator
// itself emitted the wrong record.
func TestRecordStreamOracle(t *testing.T) {
	p, err := progen.Generate(progen.Churn, 3, progen.Small, false)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := runBatched(p)
	if err != nil {
		t.Fatal(err)
	}
	taken, store := -1, -1
	for i, r := range o.recs {
		if taken < 0 && r.Flags&emu.RecTaken != 0 {
			taken = i
		}
		if isa.Op(r.Op) == isa.OpST {
			store = i // the last store: no later one overwrites its bytes
		}
	}
	if taken < 0 || store < 0 {
		t.Fatalf("program retired no taken branch (%d) or no store (%d)", taken, store)
	}

	// Every column is compared between streams.
	for name, mutate := range map[string]func(r *record){
		"idx": func(r *record) { r.Idx++ }, "next": func(r *record) { r.Next++ },
		"op": func(r *record) { r.Op++ }, "wbytes": func(r *record) { r.WBytes++ },
		"flags": func(r *record) { r.Flags ^= emu.RecTaken }, "addr": func(r *record) { r.Addr++ },
		"value": func(r *record) { r.Value++ }, "srcA": func(r *record) { r.SrcA++ },
		"srcB": func(r *record) { r.SrcB++ },
	} {
		bad := *o
		bad.recs = append(records(nil), o.recs...)
		mutate(&bad.recs[len(bad.recs)/2])
		if diff(o, &bad, "run", "mutated") == nil {
			t.Errorf("diff missed a changed %s column", name)
		}
	}

	// The semantic check needs no second stream.
	initial := emu.New(p).Mem
	for name, mutate := range map[string]func(rs records){
		"dropped taken flag": func(rs records) { rs[taken].Flags &^= emu.RecTaken },
		"wrong store data":   func(rs records) { rs[store].SrcB = ^rs[store].SrcB },
	} {
		bad := append(records(nil), o.recs...)
		mutate(bad)
		if checkSemantics(p, bad, append([]byte(nil), initial...), o.mem) == nil {
			t.Errorf("checkSemantics missed a %s", name)
		}
	}
	if err := checkSemantics(p, o.recs, append([]byte(nil), initial...), o.mem); err != nil {
		t.Fatalf("checkSemantics rejected the faithful stream: %v", err)
	}
}

// TestPooledReuseSweep: every seed's program, run on a machine acquired
// right after a different seed's program was released, must behave
// exactly like one on a fresh machine — retirement stream, output,
// registers and memory. Consecutive checks chain across seeds and
// families, so each machine inherits another program's dirty pages and
// predecode.
func TestPooledReuseSweep(t *testing.T) {
	reused, checks := 0, 0
	var prev *prog.Program
	for _, f := range progen.Families() {
		for seed := uint64(1); seed <= seedsPerFamily; seed++ {
			p, err := progen.Generate(f, seed, progen.Small, seed%2 == 0)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				ok, err := CheckPooled(prev, p)
				if err != nil {
					t.Fatalf("%s/%d: %v", f, seed, err)
				}
				checks++
				if ok {
					reused++
				}
			}
			prev = p
		}
	}
	// sync.Pool drops a released machine now and then (on purpose under
	// the race detector), but a sweep that never reused one checked
	// nothing.
	if reused == 0 {
		t.Fatalf("none of %d checks reused a released machine", checks)
	}
	t.Logf("%d of %d checks ran on a reused machine", reused, checks)
}

// TestDifferentialClasses: the same invariants hold at the larger size
// classes (fewer seeds — the programs are an order of magnitude longer).
func TestDifferentialClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("large classes skipped in -short mode")
	}
	for _, f := range progen.Families() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			t.Parallel()
			if err := Check(f, 23, progen.Medium); err != nil {
				t.Fatal(err)
			}
			if err := Check(f, 23, progen.Large); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialPhasedSweep: the substrate invariants hold across the
// non-stationary program space — phase composites pairing every family
// with its width-spectrum opposite, and the adversarial width-flip
// family over a period grid.
func TestDifferentialPhasedSweep(t *testing.T) {
	t.Run("phase", func(t *testing.T) {
		t.Parallel()
		for _, f := range progen.Families() {
			opposite := progen.Wide
			if f == progen.Wide || f == progen.Pointer {
				opposite = progen.Narrow
			}
			for seed := uint64(1); seed <= 3; seed++ {
				if err := CheckPhased([]progen.Family{f, opposite}, seed, progen.Small); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A triple composite exercises more than pairwise stitching.
		if err := CheckPhased([]progen.Family{progen.Narrow, progen.Wide, progen.Branchy}, 5, progen.Small); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("flip", func(t *testing.T) {
		t.Parallel()
		for _, period := range []int{1, 2, 7, 64} {
			for seed := uint64(1); seed <= 3; seed++ {
				if err := CheckFlip(period, seed, progen.Small); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestFusedModesSmoke: the fused-accounting invariant holds on a
// generated program from each end of the width spectrum, on a phase
// composite spanning both ends, and on the width-flip family (the full
// family × class property matrix lives in the harness tests).
func TestFusedModesSmoke(t *testing.T) {
	for _, f := range []progen.Family{progen.Narrow, progen.Wide} {
		p, err := progen.Generate(f, 3, progen.Small, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFusedModes(p); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
	p, _, err := progen.GeneratePhased([]progen.Family{progen.Narrow, progen.Wide}, 3, progen.Small, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFusedModes(p); err != nil {
		t.Fatalf("phase/narrow-wide: %v", err)
	}
	fp, err := progen.GenerateFlip(2, 3, progen.Small, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFusedModes(fp); err != nil {
		t.Fatalf("flip/2: %v", err)
	}
}

// TestCheckRejectsBadInputs: the generator's argument validation reaches
// the differential entry point.
func TestCheckRejectsBadInputs(t *testing.T) {
	if err := Check(progen.Family(99), 1, progen.Small); err == nil {
		t.Error("Check accepted an unknown family")
	}
}
