package emu_test

import (
	"bytes"
	"math"
	"testing"

	"opgate/internal/asm"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/prog"
)

func run(t *testing.T, src string) *emu.Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := emu.New(p)
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// TestALUSemantics exercises one instruction of each kind and checks the
// register state via OUT.
func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []byte
	}{
		{"add", "lda r1, 40(rz)\n add r1, r1, #2\n out.b r1", []byte{42}},
		{"sub", "lda r1, 50(rz)\n sub r1, r1, #8\n out.b r1", []byte{42}},
		{"mul", "lda r1, 6(rz)\n mul r1, r1, #7\n out.b r1", []byte{42}},
		{"and", "lda r1, 0xFF(rz)\n and r1, r1, #0x2A\n out.b r1", []byte{42}},
		{"or", "lda r1, 0x20(rz)\n or r1, r1, #0x0A\n out.b r1", []byte{42}},
		{"xor", "lda r1, 0x6A(rz)\n xor r1, r1, #0x40\n out.b r1", []byte{42}},
		{"bic", "lda r1, 0x7F(rz)\n bic r1, r1, #0x55\n out.b r1", []byte{42}},
		{"sll", "lda r1, 21(rz)\n sll r1, r1, #1\n out.b r1", []byte{42}},
		{"srl", "lda r1, 84(rz)\n srl r1, r1, #1\n out.b r1", []byte{42}},
		{"sra", "lda r1, -84(rz)\n sra r1, r1, #1\n out.b r1", []byte{0xD6}}, // -42
		{"mskl", "lda r1, 0x12A(rz)\n mskl.b r1, r1\n out.h r1", []byte{0x2A, 0x00}},
		{"sext", "lda r1, 0xFF(rz)\n sext.b r1, r1\n out.h r1", []byte{0xFF, 0xFF}}, // -1
		{"extb", "lda r1, 0x2A00(rz)\n extb r1, r1, #1\n out.b r1", []byte{42}},
		{"cmplt-true", "lda r1, 3(rz)\n cmplt r2, r1, #5\n out.b r2", []byte{1}},
		{"cmplt-false", "lda r1, 7(rz)\n cmplt r2, r1, #5\n out.b r2", []byte{0}},
		{"cmpeq", "lda r1, 5(rz)\n cmpeq r2, r1, #5\n out.b r2", []byte{1}},
		{"cmpult-neg", "lda r1, -1(rz)\n cmpult r2, r1, #5\n out.b r2", []byte{0}}, // -1 is huge unsigned
		{"cmov-taken", "lda r1, 1(rz)\n lda r2, 9(rz)\n lda r3, 42(rz)\n cmovne r2, r1, r3\n out.b r2", []byte{42}},
		{"cmov-skipped", "lda r1, 0(rz)\n lda r2, 9(rz)\n lda r3, 42(rz)\n cmovne r2, r1, r3\n out.b r2", []byte{9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := run(t, ".func main\n"+c.body+"\nhalt\n")
			if !bytes.Equal(m.Output, c.want) {
				t.Errorf("output = %x, want %x", m.Output, c.want)
			}
		})
	}
}

// TestNarrowALUTruncation: narrow opcodes sign-extend their result from
// the opcode width (the property that makes unsound VRP narrowing visible).
func TestNarrowALUTruncation(t *testing.T) {
	m := run(t, `
.func main
	lda r1, 200(rz)
	add.b r2, r1, #100    ; 300 -> low byte 0x2C, sign-extended
	out.h r2
	halt
`)
	// 300 = 0x12C; sext8(0x2C) = 0x2C = 44.
	want := []byte{0x2C, 0x00}
	if !bytes.Equal(m.Output, want) {
		t.Errorf("output = %x, want %x", m.Output, want)
	}
}

// TestMemorySemantics: store/load widths, zero/sign extension.
func TestMemorySemantics(t *testing.T) {
	m := run(t, `
.data
buf: .space 32
.text
.func main
	lda r1, =buf
	lda r2, -2(rz)        ; 0xFFFF...FE
	st.q r2, 0(r1)
	ld.b r3, 0(r1)        ; zero-extended byte: 0xFE
	out.h r3
	ld.w r4, 0(r1)        ; sign-extended 32-bit: -2
	cmpeq r5, r4, #-2
	out.b r5
	st.b rz, 0(r1)        ; clear low byte
	ld.q r6, 0(r1)
	cmpeq r7, r6, #-256
	out.b r7
	halt
`)
	want := []byte{0xFE, 0x00, 1, 1}
	if !bytes.Equal(m.Output, want) {
		t.Errorf("output = %x, want %x", m.Output, want)
	}
}

func TestCallsAndStack(t *testing.T) {
	m := run(t, `
.func main
	lda a0, 5(rz)
	jsr addten
	out.b rv
	lda a0, 7(rz)
	jsr addten
	out.b rv
	halt
.func addten
	add rv, a0, #10
	ret
`)
	if !bytes.Equal(m.Output, []byte{15, 17}) {
		t.Errorf("output = %v", m.Output)
	}
}

func TestGPAndSPInitialised(t *testing.T) {
	p, err := asm.Assemble(".func main\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if m.Regs[prog.RegGP] != p.DataBase {
		t.Errorf("GP = %#x, want %#x", m.Regs[prog.RegGP], p.DataBase)
	}
	if m.Regs[prog.RegSP] != p.DataBase+p.MemSize {
		t.Errorf("SP = %#x", m.Regs[prog.RegSP])
	}
	if p.DataBase < 1<<32 {
		t.Errorf("data base %#x below 2^32: addresses would not be 5-byte values", p.DataBase)
	}
}

// TestMemoryBoundsTrap: an access outside the memory image traps with an
// error — including one whose offset lies within the access width of
// MaxInt64, where a naive off+n bound would wrap — and never panics.
func TestMemoryBoundsTrap(t *testing.T) {
	// r1 = MinInt64 + 2^32 - 1: its offset from the 2^32 data base is
	// MaxInt64.
	const wrapped = "lda r1, 1(rz)\nsll r1, r1, #63\nlda r2, 1(rz)\nsll r2, r2, #32\nsub r2, r2, #1\nadd r1, r1, r2\n"
	for name, body := range map[string]string{
		"below the data base": "ld.q r1, 0(rz)\n",
		"wrapped load":        wrapped + "ld.q r3, 0(r1)\n",
		"wrapped store":       wrapped + "st.q r2, 0(r1)\n",
	} {
		p, err := asm.Assemble(".func main\n" + body + "halt\n")
		if err != nil {
			t.Fatal(err)
		}
		m := emu.New(p)
		if err := m.Run(); err == nil {
			t.Errorf("%s: the access must trap", name)
		}
	}

	p, err := asm.Assemble(".func main\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	top := p.DataBase
	top += math.MaxInt64 // wraps: top - DataBase is MaxInt64
	if _, err := m.LoadBytes(top, 8); err == nil {
		t.Error("LoadBytes at a wrapped offset must fail")
	}
	if _, err := m.LoadBytes(p.DataBase, -1); err == nil {
		t.Error("LoadBytes of a negative length must fail")
	}
	if err := m.StoreBytes(top, make([]byte, 8)); err == nil {
		t.Error("StoreBytes at a wrapped offset must fail")
	}
}

func TestFuelExhaustion(t *testing.T) {
	p, err := asm.Assemble(".func main\nloop:\nbr loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	m.Fuel = 1000
	if err := m.Run(); err == nil {
		t.Error("infinite loop must exhaust fuel")
	}
}

func TestInstructionCounts(t *testing.T) {
	p, err := asm.Assemble(`
.func main
	lda r1, 0(rz)
loop:
	add r1, r1, #1
	cmplt r2, r1, #10
	bne r2, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	// Per-static counts are a tally of the record stream's Idx column.
	counts := make([]int64, len(p.Ins))
	m := emu.New(p)
	m.Sink = emu.RecFunc(func(b emu.RecBatch) {
		for _, idx := range b.Idx {
			counts[idx]++
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[1] != 10 {
		t.Errorf("add executed %d times, want 10", counts[1])
	}
	if counts[0] != 1 {
		t.Errorf("init executed %d times, want 1", counts[0])
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != m.Dyn {
		t.Errorf("counts sum to %d, the machine retired %d", total, m.Dyn)
	}
}

func TestTraceEvents(t *testing.T) {
	p, err := asm.Assemble(`
.data
buf: .space 16
.text
.func main
	lda r1, =buf
	lda r2, 99(rz)
	st.w r2, 4(r1)
	ld.w r3, 4(r1)
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	var recs collector
	m.Sink = &recs
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recs.recs) != 5 {
		t.Fatalf("traced %d records, want 5", len(recs.recs))
	}
	st := recs.recs[2]
	if isa.Op(st.Op) != isa.OpST || st.WBytes != 4 || st.Addr != p.DataBase+4 || st.Value != 99 ||
		st.SrcB != 99 || st.Flags != 0 {
		t.Errorf("store record = %+v", st)
	}
	ld := recs.recs[3]
	if isa.Op(ld.Op) != isa.OpLD || ld.Addr != p.DataBase+4 || ld.Value != 99 || ld.Flags != emu.RecWritesDest {
		t.Errorf("load record = %+v", ld)
	}
}

func TestEquivalenceDetectsOutputDifference(t *testing.T) {
	p1, _ := asm.Assemble(".func main\nlda r1, 1(rz)\nout.b r1\nhalt\n")
	p2, _ := asm.Assemble(".func main\nlda r1, 2(rz)\nout.b r1\nhalt\n")
	if err := emu.CheckEquivalence(p1, p2); err == nil {
		t.Error("differing outputs not detected")
	}
}

func TestEquivalenceDetectsMemoryDifference(t *testing.T) {
	p1, _ := asm.Assemble(".data\nb: .space 8\n.text\n.func main\nlda r1, =b\nlda r2, 1(rz)\nst.q r2, 0(r1)\nhalt\n")
	p2, _ := asm.Assemble(".data\nb: .space 8\n.text\n.func main\nlda r1, =b\nlda r2, 2(rz)\nst.q r2, 0(r1)\nhalt\n")
	if err := emu.CheckEquivalence(p1, p2); err == nil {
		t.Error("differing final memory not detected")
	}
}

// TestResetRestoresFuel: Reset must refill the dynamic-instruction budget,
// so a second pass over a long program gets the full DefaultFuel and not
// whatever the first pass left.
func TestResetRestoresFuel(t *testing.T) {
	p, err := asm.Assemble(`
.func main
	lda r1, 0(rz)
loop:
	add r1, r1, #1
	cmplt r2, r1, #1000
	bne r2, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Fuel == emu.DefaultFuel {
		t.Fatal("the run consumed no fuel")
	}
	m.Reset()
	if m.Fuel != emu.DefaultFuel {
		t.Fatalf("Reset left Fuel at %d, want DefaultFuel %d", m.Fuel, emu.DefaultFuel)
	}
}

// TestAcquireAfterReleaseStartsClean: a machine acquired after another
// program ran on a released machine of the same memory size must start
// in exactly New's state and run to exactly New's outcome — no stale
// memory, output, sink or predecode.
func TestAcquireAfterReleaseStartsClean(t *testing.T) {
	dirty, err := asm.Assemble(`
.data
buf: .space 64
.text
.func main
	lda r1, =buf
	lda r2, 77(rz)
	st.q r2, 8(r1)
	st.q r2, -64(sp)
	out.b r2
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(`
.data
buf: .space 64
.text
.func main
	lda r1, =buf
	ld.q r3, 8(r1)
	ld.q r4, -64(sp)
	add r3, r3, r4
	out.b r3
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	fresh := emu.New(p)
	var freshRecs collector
	fresh.Sink = &freshRecs
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}

	reused := 0
	for i := 0; i < 8; i++ {
		d := emu.Acquire(dirty)
		d.Sink = new(collector)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		d.Release()

		m := emu.Acquire(p)
		if m == d {
			reused++
		}
		if m.Sink != nil || len(m.Output) != 0 ||
			m.Fuel != emu.DefaultFuel || m.Dyn != 0 || m.Halted {
			t.Fatalf("acquired machine not in its initial state: sink %v output %v fuel %d dyn %d halted %v",
				m.Sink, m.Output, m.Fuel, m.Dyn, m.Halted)
		}
		var recs collector
		m.Sink = &recs
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Output, fresh.Output) || !bytes.Equal(m.Mem, fresh.Mem) ||
			m.Regs != fresh.Regs || m.Dyn != fresh.Dyn {
			t.Fatalf("acquired run differs from a fresh machine: output %v vs %v", m.Output, fresh.Output)
		}
		if len(recs.recs) != len(freshRecs.recs) {
			t.Fatalf("acquired run retired %d records, fresh %d", len(recs.recs), len(freshRecs.recs))
		}
		for j := range recs.recs {
			if recs.recs[j] != freshRecs.recs[j] {
				t.Fatalf("record %d: acquired %+v, fresh %+v", j, recs.recs[j], freshRecs.recs[j])
			}
		}
		m.Release()
	}
	// sync.Pool may drop a released machine (always possible, and on
	// purpose under the race detector), but never all of them.
	if reused == 0 {
		t.Error("no Acquire reused a released machine")
	}
}
