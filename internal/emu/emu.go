// Package emu executes OG64 programs functionally. It is the architectural
// reference model: the binary optimizer's equivalence checks, the value
// profiler, and the trace-driven timing model (internal/uarch) all consume
// its retirement stream.
//
// The retirement stream is packed records (RecBatch): attach a RecSink to
// a Machine and the dispatch loop writes each retired instruction's record
// straight into a machine-owned batch, handed over every BatchSize
// records. Run executes a tight dispatch loop over a predecoded form of
// the program; Step is a thin single-instruction wrapper for debuggers and
// tests (it flushes its record immediately).
package emu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"opgate/internal/isa"
	"opgate/internal/prog"
)

// DefaultFuel bounds execution length; workloads finish well below it.
const DefaultFuel = 200_000_000

// BatchSize is the capacity of the machine-owned record batch: sinks see
// batches of at most this many records.
const BatchSize = 4096

// decIns is the predecoded form of one static instruction: operands,
// width-derived constants and the record's static columns are resolved
// once so the dispatch loop does no per-record re-derivation.
type decIns struct {
	imm    int64 // immediate operand / memory offset
	zmask  int64 // zero-extension mask for the opcode width (-1 for W64)
	target int32 // branch/call target
	recMeta
	rd     uint8
	ra     uint8
	rb     uint8
	shift  uint8 // 64 - width bits: sign-extension shift for the opcode width
	hasImm bool
}

// Machine is one execution context over a program.
type Machine struct {
	P      *prog.Program
	Regs   [isa.NumRegs]int64
	Mem    []byte
	PC     int
	Halted bool
	Output []byte

	// Fuel is the remaining dynamic instruction budget.
	Fuel int64
	// Dyn is the number of retired instructions.
	Dyn int64

	// Sink receives each retired instruction's record, in batches, if non-nil.
	Sink RecSink

	dec    []decIns      // predecoded program, built lazily on first run
	decSrc *prog.Program // program the predecode was built from
	recs   *recBuf       // reusable record batch handed to Sink
	dirty  []uint64      // bitmap of written memory pages, so Reset zeroes only touched pages
}

// recBuf backs the machine's record batch with fixed-size columns.
type recBuf struct {
	idx, next               [BatchSize]int32
	op, wbytes, flags       [BatchSize]uint8
	addr, value, srcA, srcB [BatchSize]int64
}

// batch returns the first n records as a RecBatch.
func (r *recBuf) batch(n int) RecBatch {
	return RecBatch{
		Idx: r.idx[:n], Next: r.next[:n],
		Op: r.op[:n], WBytes: r.wbytes[:n], Flags: r.flags[:n],
		Addr: r.addr[:n], Value: r.value[:n], SrcA: r.srcA[:n], SrcB: r.srcB[:n],
	}
}

// pageShift/pageBytes size the dirty-page granularity: workload memory
// images are large (the data base sits above 2^32 and the stack at the
// top of an 8MB arena) but runs touch only a few pages, so Reset clears
// the written pages instead of the whole image. All mutation goes through
// the machine (executed stores, StoreBytes, Reset); writing Mem directly
// would bypass the tracking.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
)

// markDirty records that [off, off+n) was written.
func markDirty(dirty []uint64, off, n int64) {
	p0 := uint64(off) >> pageShift
	p1 := uint64(off+n-1) >> pageShift
	for p := p0; p <= p1; p++ {
		dirty[p>>6] |= 1 << (p & 63)
	}
}

// New creates a machine with the program's initial memory image. The
// caller owns it for good; short-lived emulations whose machine never
// escapes should use Acquire and Release instead.
func New(p *prog.Program) *Machine {
	m := &Machine{P: p}
	m.Reset()
	return m
}

// pools holds released machines, one sync.Pool per memory-image size
// (MemSize -> *sync.Pool): the garbage collector may reclaim idle images.
var pools sync.Map

// poolOf returns the pool of released machines with memSize-byte images.
func poolOf(memSize int64) *sync.Pool {
	if pool, ok := pools.Load(memSize); ok {
		return pool.(*sync.Pool)
	}
	pool, _ := pools.LoadOrStore(memSize, new(sync.Pool))
	return pool.(*sync.Pool)
}

// Acquire returns a machine over p in its initial state, like New, but
// reuses a released machine with the same MemSize when one is idle: its
// Reset zeroes only the pages the previous run wrote instead of
// allocating a fresh image. The caller owns the machine until it calls
// Release and must not touch it, its Mem or its Output afterwards, so
// pair the two only where the machine never escapes.
func Acquire(p *prog.Program) *Machine {
	if m, _ := poolOf(p.MemSize).Get().(*Machine); m != nil {
		m.P = p
		m.Reset()
		return m
	}
	return New(p)
}

// Release hands m back for a later Acquire. Ownership ends here: after
// Release the caller must not use m, and must not read its Mem or Output
// (the next owner reuses both). Release drops the sink and the program,
// so the pool keeps no consumer alive.
func (m *Machine) Release() {
	m.Sink = nil
	m.P = nil
	m.decSrc = nil
	poolOf(int64(len(m.Mem))).Put(m)
}

// Reset restores the initial architectural state. Data memory is a flat
// array backing the virtual range [DataBase, DataBase+MemSize); keeping the
// base above 2^32 makes addresses realistic 5-byte values (Fig. 12) while
// the array stays small. The global pointer is pinned to DataBase, the
// stack pointer starts at the top of memory, and Fuel is back at
// DefaultFuel.
func (m *Machine) Reset() {
	if int64(len(m.Mem)) != m.P.MemSize {
		m.Mem = make([]byte, m.P.MemSize)
		pages := (len(m.Mem) + pageBytes - 1) / pageBytes
		m.dirty = make([]uint64, (pages+63)/64)
	} else {
		// Zero only the pages written since the last reset.
		mem := m.Mem
		for wi, w := range m.dirty {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << uint(b)
				start := (wi*64 + b) << pageShift
				end := start + pageBytes
				if end > len(mem) {
					end = len(mem)
				}
				clear(mem[start:end])
			}
			m.dirty[wi] = 0
		}
	}
	copy(m.Mem, m.P.Data)
	if len(m.P.Data) > 0 {
		markDirty(m.dirty, 0, int64(len(m.P.Data)))
	}
	m.Regs = [isa.NumRegs]int64{}
	m.Regs[prog.RegGP] = m.P.DataBase
	m.Regs[prog.RegSP] = m.P.DataBase + m.P.MemSize
	entry := m.P.Funcs[m.P.Entry]
	m.PC = entry.Start
	m.Halted = false
	m.Output = m.Output[:0]
	m.Fuel = DefaultFuel
	m.Dyn = 0
}

// decode predecodes the program into the dispatch loop's flat form. The
// cache is keyed on the program pointer, so swapping m.P takes effect on
// the next run (Release drops the key, so an acquired machine always
// re-decodes); mutating m.P.Ins in place between runs is not supported.
func (m *Machine) decode() {
	ins := m.P.Ins
	dec := m.dec[:0]
	if cap(dec) < len(ins) {
		dec = make([]decIns, len(ins))
	}
	dec = dec[:len(ins)]
	for i := range ins {
		in := &ins[i]
		d := &dec[i]
		d.recMeta = metaFor(in)
		d.rd = uint8(in.Rd)
		d.ra = uint8(in.Ra)
		d.rb = uint8(in.Rb)
		d.imm = in.Imm
		d.hasImm = in.HasImm
		d.target = int32(in.Target)
		d.shift = uint8(64 - in.Width.Bits())
		if in.Width == isa.W64 {
			d.zmask = -1
		} else {
			d.zmask = int64(1)<<uint(in.Width.Bits()) - 1
		}
	}
	m.dec = dec
	m.decSrc = m.P
}

// Run executes until HALT, RET from the entry function, or fuel
// exhaustion; it returns an error on traps (bad memory, bad PC, fuel).
func (m *Machine) Run() error { return m.run(-1) }

// Step executes one instruction. Its record (when a Sink is attached) is
// delivered immediately as a one-record batch.
func (m *Machine) Step() error { return m.run(1) }

const zr = uint8(isa.ZeroReg)

// run is the dispatch loop shared by Run and Step: it executes up to limit
// instructions (limit < 0 means until halt/trap/fuel), writing each record
// into the machine's batch and handing full batches to the Sink.
func (m *Machine) run(limit int64) error {
	if m.Halted || limit == 0 {
		return nil
	}
	if m.decSrc != m.P || len(m.dec) != len(m.P.Ins) {
		m.decode()
	}
	record := m.Sink != nil
	if record && m.recs == nil {
		m.recs = new(recBuf)
	}

	dec := m.dec
	b := m.recs
	regs := &m.Regs
	mem := m.Mem
	dirty := m.dirty
	base := m.P.DataBase
	pc := m.PC
	halted := false
	n := 0 // records in the batch

	budget := m.Fuel
	if limit >= 0 && limit < budget {
		budget = limit
	}

	var executed int64
	var runErr error

loop:
	for executed < budget {
		if pc < 0 || pc >= len(dec) {
			runErr = fmt.Errorf("emu: pc %d outside program", pc)
			break
		}
		d := &dec[pc]
		idx := pc
		executed++

		ra := regs[d.ra&31]
		rb := d.imm
		if !d.hasImm {
			rb = regs[d.rb&31]
		}
		next := idx + 1
		wr := false
		fl := d.flags // the record's flags: RecWritesDest, plus RecTaken below
		var val, addr int64

		switch d.op {
		case isa.OpLDA:
			// LDA carries a width like the other add-class ops, so that an
			// unsoundly narrowed constant/address materialisation is
			// observable in equivalence tests.
			sh := d.shift
			val = (ra + d.imm) << sh >> sh
			wr = true

		case isa.OpLD:
			addr = ra + d.imm
			off := addr - base
			nb := int64(d.wbytes)
			if off < 0 || off > int64(len(mem))-nb {
				runErr = fmt.Errorf("emu: pc %d: load of %d bytes at %#x out of bounds", idx, nb, addr)
				break loop
			}
			switch d.wbytes {
			case 1:
				val = int64(mem[off]) // zero-extended, like Alpha LDBU
			case 2:
				val = int64(binary.LittleEndian.Uint16(mem[off:]))
			case 4:
				val = int64(int32(binary.LittleEndian.Uint32(mem[off:]))) // sign-extended, like Alpha LDL
			default:
				val = int64(binary.LittleEndian.Uint64(mem[off:]))
			}
			wr = true

		case isa.OpST:
			addr = ra + d.imm
			data := regs[d.rb&31]
			rb = data // the record's SrcB is the store data
			off := addr - base
			nb := int64(d.wbytes)
			if off < 0 || off > int64(len(mem))-nb {
				runErr = fmt.Errorf("emu: pc %d: store of %d bytes at %#x out of bounds", idx, nb, addr)
				break loop
			}
			switch d.wbytes {
			case 1:
				mem[off] = byte(data)
			case 2:
				binary.LittleEndian.PutUint16(mem[off:], uint16(data))
			case 4:
				binary.LittleEndian.PutUint32(mem[off:], uint32(data))
			default:
				binary.LittleEndian.PutUint64(mem[off:], uint64(data))
			}
			p0 := uint64(off) >> pageShift
			dirty[p0>>6] |= 1 << (p0 & 63)
			if p1 := uint64(off+nb-1) >> pageShift; p1 != p0 {
				dirty[p1>>6] |= 1 << (p1 & 63)
			}
			val = data & d.zmask

		case isa.OpADD:
			sh := d.shift
			val = (ra + rb) << sh >> sh
			wr = true
		case isa.OpSUB:
			sh := d.shift
			val = (ra - rb) << sh >> sh
			wr = true
		case isa.OpMUL:
			sh := d.shift
			val = (ra * rb) << sh >> sh
			wr = true
		case isa.OpAND:
			sh := d.shift
			val = (ra & rb) << sh >> sh
			wr = true
		case isa.OpOR:
			sh := d.shift
			val = (ra | rb) << sh >> sh
			wr = true
		case isa.OpXOR:
			sh := d.shift
			val = (ra ^ rb) << sh >> sh
			wr = true
		case isa.OpBIC:
			sh := d.shift
			val = (ra &^ rb) << sh >> sh
			wr = true
		case isa.OpSLL:
			sh := d.shift
			val = (ra << uint(rb&63)) << sh >> sh
			wr = true
		case isa.OpSRL:
			sh := d.shift
			val = int64(uint64(ra)>>uint(rb&63)) << sh >> sh
			wr = true
		case isa.OpSRA:
			sh := d.shift
			val = (ra >> uint(rb&63)) << sh >> sh
			wr = true

		case isa.OpMSKL:
			val = ra & d.zmask
			wr = true
		case isa.OpEXTB:
			val = (ra >> uint(8*(rb&7))) & 0xFF
			wr = true
		case isa.OpSEXT:
			sh := d.shift
			val = ra << sh >> sh
			wr = true

		case isa.OpCMPEQ:
			sh := d.shift
			val = b2i(ra<<sh>>sh == rb<<sh>>sh)
			wr = true
		case isa.OpCMPLT:
			sh := d.shift
			val = b2i(ra<<sh>>sh < rb<<sh>>sh)
			wr = true
		case isa.OpCMPLE:
			sh := d.shift
			val = b2i(ra<<sh>>sh <= rb<<sh>>sh)
			wr = true
		case isa.OpCMPULT:
			sh := d.shift
			val = b2i(uint64(ra<<sh>>sh) < uint64(rb<<sh>>sh))
			wr = true
		case isa.OpCMPULE:
			sh := d.shift
			val = b2i(uint64(ra<<sh>>sh) <= uint64(rb<<sh>>sh))
			wr = true

		case isa.OpCMOVEQ, isa.OpCMOVNE, isa.OpCMOVLT, isa.OpCMOVGE:
			if isa.CondHolds(d.op, ra) {
				sh := d.shift
				val = rb << sh >> sh
				wr = true
			} else {
				val = regs[d.rd&31] // old destination value, preserved
			}

		case isa.OpBR:
			next = int(d.target)
			fl |= RecTaken
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBGT, isa.OpBLE:
			if isa.CondHolds(d.op, ra) {
				next = int(d.target)
				fl |= RecTaken
			}
		case isa.OpJSR:
			val = int64(idx + 1)
			wr = true
			next = int(d.target)
			fl |= RecTaken
		case isa.OpRET:
			next = int(ra)
			fl |= RecTaken
		case isa.OpHALT:
			halted = true
			next = idx
		case isa.OpOUT:
			val = ra & d.zmask
			for i := 0; i < int(d.wbytes); i++ {
				m.Output = append(m.Output, byte(uint64(val)>>(8*uint(i))))
			}

		default:
			runErr = fmt.Errorf("emu: pc %d: unimplemented opcode %v", idx, d.op)
			break loop
		}

		if wr && d.rd != zr {
			regs[d.rd&31] = val
		}
		if record {
			i := n & (BatchSize - 1) // always n: the mask drops nine bounds checks
			b.idx[i] = int32(idx)
			b.next[i] = int32(next)
			b.op[i] = uint8(d.op)
			b.wbytes[i] = d.wbytes
			b.flags[i] = fl
			b.addr[i] = addr
			b.value[i] = val
			b.srcA[i] = ra
			b.srcB[i] = rb
			n++
			if n == BatchSize {
				m.Sink.ConsumeRecs(b.batch(n))
				n = 0
			}
		}
		pc = next
		if halted {
			break
		}
	}

	// Commit architectural state and flush the retired records. An
	// instruction that trapped mid-execution (bad memory, bad opcode)
	// consumed fuel and counted towards Dyn but produced no record; an
	// out-of-range PC traps before any of that.
	m.PC = pc
	m.Dyn += executed
	m.Fuel -= executed
	m.Halted = halted
	if record && n > 0 {
		m.Sink.ConsumeRecs(b.batch(n))
	}
	if runErr != nil {
		return runErr
	}
	if !halted && (limit < 0 || executed < limit) {
		return fmt.Errorf("emu: out of fuel at pc %d (infinite loop?)", pc)
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// LoadBytes copies out a memory region by virtual address (for tests and
// result checking).
func (m *Machine) LoadBytes(addr, n int64) ([]byte, error) {
	off := addr - m.P.DataBase
	if n < 0 || off < 0 || off > int64(len(m.Mem))-n {
		return nil, fmt.Errorf("emu: read of %d bytes at %#x out of bounds", n, addr)
	}
	out := make([]byte, n)
	copy(out, m.Mem[off:off+n])
	return out, nil
}

// StoreBytes pokes a memory region by virtual address before a run
// (workload inputs).
func (m *Machine) StoreBytes(addr int64, data []byte) error {
	off := addr - m.P.DataBase
	if off < 0 || off > int64(len(m.Mem))-int64(len(data)) {
		return fmt.Errorf("emu: write of %d bytes at %#x out of bounds", len(data), addr)
	}
	copy(m.Mem[off:], data)
	if len(data) > 0 {
		markDirty(m.dirty, off, int64(len(data)))
	}
	return nil
}
