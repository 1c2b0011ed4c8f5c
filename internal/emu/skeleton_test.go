package emu_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/store"
)

// cloneRecs deep-copies every column of a batch.
func cloneRecs(b emu.RecBatch) emu.RecBatch {
	return emu.RecBatch{
		Idx: slices.Clone(b.Idx), Next: slices.Clone(b.Next),
		Op: slices.Clone(b.Op), WBytes: slices.Clone(b.WBytes), Flags: slices.Clone(b.Flags),
		Addr: slices.Clone(b.Addr), Value: slices.Clone(b.Value),
		SrcA: slices.Clone(b.SrcA), SrcB: slices.Clone(b.SrcB),
	}
}

// TestProgramFromTraceSkeleton: the skeleton of a captured trace carries
// the op, width and writes-dest facts of every retired static index,
// restores the same records, and is a pure function of the static table.
func TestProgramFromTraceSkeleton(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)
	recs := flatten(tr)

	sk, err := emu.NewProgramFromTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range recs.Idx {
		want, got := &p.Ins[idx], &sk.Ins[idx]
		_, wd := want.Dest()
		_, gd := got.Dest()
		if got.Op != want.Op || got.Width != want.Width || gd != wd {
			t.Fatalf("skeleton ins %d = %v/%v/%v, want %v/%v/%v", idx, got.Op, got.Width, gd, want.Op, want.Width, wd)
		}
	}
	if _, err := emu.NewTraceFromRecords(sk, recs); err != nil {
		t.Fatalf("skeleton rejects its own records: %v", err)
	}
	again, err := emu.NewProgramFromTrace(cloneRecs(recs))
	if err != nil {
		t.Fatal(err)
	}
	if store.ProgramIdentity(again) != store.ProgramIdentity(sk) {
		t.Fatal("skeleton identity is not a function of the records")
	}
}

// TestProgramFromTraceRejects: every inconsistent record stream is an
// error naming the fault, never a panic or a guessed skeleton.
func TestProgramFromTraceRejects(t *testing.T) {
	p := assembleProg(t, branchyProgram)
	tr, _ := recordTrace(t, p)
	recs := flatten(tr)

	// repeat is a destination-writing record whose static index retired
	// before; other is a record of another static index.
	seen := map[int32]bool{}
	repeat := -1
	for i, idx := range recs.Idx {
		if seen[idx] && recs.Flags[i]&emu.RecWritesDest != 0 {
			repeat = i
			break
		}
		seen[idx] = true
	}
	if repeat < 0 {
		t.Fatal("test program retires no destination writer twice")
	}
	other := slices.IndexFunc(recs.Op, func(op uint8) bool { return op != recs.Op[repeat] })
	noDest := slices.IndexFunc(recs.Op, func(op uint8) bool { return !isa.HasDest(isa.Op(op)) })
	if other < 0 || noDest < 0 {
		t.Fatal("test program retires a single opcode")
	}

	cases := []struct {
		name, want string
		edit       func(b *emu.RecBatch)
	}{
		{"ragged", "ragged", func(b *emu.RecBatch) { b.Value = b.Value[1:] }},
		{"empty", "empty trace", func(b *emu.RecBatch) { *b = emu.RecBatch{} }},
		{"negative index", "static index", func(b *emu.RecBatch) { b.Idx[0] = -1 }},
		{"index at the cap", "static index", func(b *emu.RecBatch) { b.Idx[0] = emu.MaxSkeletonIns }},
		{"next at the cap", "next index", func(b *emu.RecBatch) { b.Next[0] = emu.MaxSkeletonIns }},
		{"negative next", "next index", func(b *emu.RecBatch) { b.Next[0] = -1 }},
		{"invalid op", "undefined opcode", func(b *emu.RecBatch) { b.Op[0] = uint8(isa.OpInvalid) }},
		{"op past the table", "undefined opcode", func(b *emu.RecBatch) { b.Op[0] = uint8(isa.NumOps) }},
		{"bad width", "impossible operand width", func(b *emu.RecBatch) { b.WBytes[0] = 3 }},
		{"unknown flag", "unknown flag bits", func(b *emu.RecBatch) { b.Flags[0] |= 0x80 }},
		{"dest on a destination-less op", "cannot write a destination", func(b *emu.RecBatch) {
			b.Flags[noDest] |= emu.RecWritesDest
		}},
		{"conflicting op", "conflicts", func(b *emu.RecBatch) { b.Op[repeat] = b.Op[other] }},
		{"conflicting width", "conflicts", func(b *emu.RecBatch) {
			b.WBytes[repeat] = map[uint8]uint8{1: 2, 2: 4, 4: 8, 8: 1, 0: 8}[b.WBytes[repeat]]
		}},
		{"conflicting dest flag", "conflicts", func(b *emu.RecBatch) { b.Flags[repeat] &^= emu.RecWritesDest }},
	}
	for _, c := range cases {
		b := cloneRecs(recs)
		c.edit(&b)
		_, err := emu.NewProgramFromTrace(b)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestLoadStoreBytesBounds: the host-side memory accessors round-trip in
// bounds and refuse negative lengths, accesses below the data base,
// accesses past the image, and wrapped offsets.
func TestLoadStoreBytesBounds(t *testing.T) {
	p := assembleProg(t, ".func main\nhalt\n")
	m := emu.New(p)
	size := int64(len(m.Mem))

	if err := m.StoreBytes(p.DataBase+size-3, []byte{1, 2, 3}); err != nil {
		t.Fatalf("store ending at the image top: %v", err)
	}
	got, err := m.LoadBytes(p.DataBase+size-3, 3)
	if err != nil || string(got) != "\x01\x02\x03" {
		t.Fatalf("load ending at the image top = %v, %v", got, err)
	}
	if err := m.StoreBytes(p.DataBase+size, nil); err != nil {
		t.Errorf("empty store at the image top: %v", err)
	}
	if got, err := m.LoadBytes(p.DataBase+size, 0); err != nil || len(got) != 0 {
		t.Errorf("empty load at the image top = %v, %v", got, err)
	}

	wrapped := p.DataBase + (1<<63 - 1) // offset MaxInt64
	for name, fn := range map[string]func() error{
		"load negative length": func() error { _, err := m.LoadBytes(p.DataBase, -1); return err },
		"load below base":      func() error { _, err := m.LoadBytes(p.DataBase-1, 1); return err },
		"load past the top":    func() error { _, err := m.LoadBytes(p.DataBase+size-1, 2); return err },
		"load wrapped":         func() error { _, err := m.LoadBytes(wrapped, 8); return err },
		"store below base":     func() error { return m.StoreBytes(p.DataBase-1, []byte{0}) },
		"store past the top":   func() error { return m.StoreBytes(p.DataBase+size-1, []byte{0, 0}) },
		"store wrapped":        func() error { return m.StoreBytes(wrapped, make([]byte, 8)) },
	} {
		if err := fn(); err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Errorf("%s: err = %v, want out of bounds", name, err)
		}
	}
}

// TestCheckEquivalenceVerdicts: equivalence compares output and final
// memory, not registers, and names where the programs first differ.
func TestCheckEquivalenceVerdicts(t *testing.T) {
	const mem = ".data\nb: .space 16\n.text\n.func main\nlda r1, =b\nlda r2, %d(rz)\nst.b r2, 5(r1)\n%shalt\n"
	asmf := func(v int, tail string) string { return fmt.Sprintf(mem, v, tail) }
	cases := []struct {
		name, a, b, want string
	}{
		{"registers only", asmf(1, "lda r3, 1(rz)\n"), asmf(1, "lda r3, 2(rz)\n"), ""},
		{"output value", asmf(1, "out.b r2\nout.b r2\n"), asmf(1, "out.b r2\nout.b rz\n"), "first diff at 1"},
		{"output length", asmf(1, "out.b r2\n"), asmf(1, "out.b r2\nout.b r2\n"), "first diff at 1"},
		{"memory", asmf(1, ""), asmf(2, ""), "final memory mismatch at offset 5"},
		{"original traps", ".func main\nld.q r1, 0(rz)\nhalt\n", asmf(1, ""), "original program failed"},
		{"transformed traps", asmf(1, ""), ".func main\nld.q r1, 0(rz)\nhalt\n", "transformed program failed"},
	}
	for _, c := range cases {
		err := emu.CheckEquivalence(assembleProg(t, c.a), assembleProg(t, c.b))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v, want equivalent", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
