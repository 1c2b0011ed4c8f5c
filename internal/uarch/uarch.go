// Package uarch is the trace-driven out-of-order processor model of
// Table 2. The functional emulator (internal/emu) supplies the retired
// instruction stream; this model replays it through fetch, rename,
// a 64-entry instruction window, functional units, a load/store queue and
// the cache hierarchy, producing a cycle count and per-structure energy via
// the operand-gated power model (internal/power).
//
// This is the classic sim-outorder decomposition: timing is modelled on
// the architecturally correct path, with branch mispredictions charged as
// fetch redirect bubbles plus wrong-path activity energy.
package uarch

import (
	"fmt"

	"opgate/internal/bpred"
	"opgate/internal/cache"
	"opgate/internal/emu"
	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/prog"
)

// Config mirrors Table 2.
type Config struct {
	FetchWidth      int
	DecodeWidth     int
	IssueWidth      int
	RetireWidth     int
	WindowSize      int // max in-flight instructions
	PhysRegs        int
	IntALUs         int
	IntMulDiv       int
	FrontendDepth   int // fetch→dispatch stages
	RedirectPenalty int
	// InstrBytes is the size of one instruction in the I-cache (OG64
	// encodes to 8 bytes).
	InstrBytes int
	// WrongPathFactor scales the wasted front-end activity charged per
	// mispredict (fraction of a full fetch-to-dispatch refill).
	WrongPathFactor float64
	// SignExtendToCache selects the paper's §2.4 memory approach (2):
	// no size tags in the cache; values sign-extend to full width.
	SignExtendToCache bool

	Predictor bpred.Config
	Memory    cache.HierarchyConfig
}

// DefaultConfig returns the paper's machine parameters.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		DecodeWidth:     4,
		IssueWidth:      4,
		RetireWidth:     4,
		WindowSize:      64,
		PhysRegs:        96,
		IntALUs:         3,
		IntMulDiv:       1,
		FrontendDepth:   4,
		RedirectPenalty: 2,
		InstrBytes:      8,
		WrongPathFactor: 0.5,
		Predictor:       bpred.DefaultConfig(),
		Memory:          cache.DefaultHierarchyConfig(),
	}
}

// Result summarises one simulation.
type Result struct {
	Cycles         int64
	Instructions   int64
	Energy         *power.Meter
	BranchMissRate float64
	L1DMissRate    float64
	L1IMissRate    float64
	IPC            float64
}

// Sim consumes a retirement record stream once and produces timing plus
// energy for every gating mode in its bank. It is an emu.RecSink: replay
// hands it a trace's record batches directly, and a live pass feeds it as
// a TraceRecorder's rider or as the machine's sink.
//
// The power bank is the pluggable accounting stage: one meter per
// requested gating mode. The timing core above it is mode-independent —
// it describes each access as (structure, software width, value
// significance) and never consults a gating mode — so one traversal of
// the stream accrues any number of modes. Every meter sees, per
// structure, exactly the access sequence a solo run would produce (fused
// results are bit-identical to per-mode runs); each value's significance
// is computed once per event and shared across the bank.
type Sim struct {
	cfg    Config
	meters []*power.Meter
	pred   *bpred.Predictor
	hier   *cache.Hierarchy
	static []static

	l1iHit    int // L1 I-cache hit latency
	wrongPath int // ICache+Rename accesses charged per mispredict

	regReady        [isa.NumRegs]int64 // cycle each architectural value is ready
	fetchCycle      int64
	fetchedInCycle  int
	lastFetchLine   int64
	pendingRedirect int64 // earliest fetch cycle after a mispredict

	// Issue-bandwidth ring: issued[c & (ringSize-1)] counts issues in
	// cycle c; epochs detect stale slots.
	issued     []int8
	issueEpoch []int64

	// Free-window tracking: retire cycles of the last WindowSize
	// instructions, as a ring.
	windowRing []int64
	windowPos  int

	// Physical-register tracking: completion cycles of the last
	// (PhysRegs - NumRegs) register-writing instructions.
	physRing []int64
	physPos  int

	// FU next-free cycles.
	aluFree []int64
	mulFree []int64

	lastRetire     int64
	retiredInCycle int
	retired        int64

	results []*Result // built once by FinishAll
}

// ringSize is a power of two, so a cycle's issue slot is a mask.
const ringSize = 1 << 14

// static is the per-static-instruction metadata the timing core reads on
// every retirement, decoded once per program so the per-event path never
// re-derives register uses, classes or fetch lines.
type static struct {
	fetchAddr int64      // I-cache byte address
	line      int64      // I-cache line of fetchAddr
	uses      [3]isa.Reg // non-zero register uses, in Uses order
	nUses     uint8
	useB      uint8 // bit k set: use k's operand value is SrcB, else SrcA
	dest      isa.Reg
	width     uint8 // operand width in bytes (the software gating width)
	lat       uint8 // functional-unit latency
	flags     uint16
}

// static flag bits.
const (
	fDest   = 1 << iota // writes architectural register dest
	fPhys               // allocates a physical register, produces a value
	fMul                // issues to the multiply/divide unit
	fMem                // accesses data memory
	fStore              // memory write
	fBranch             // resolves on the branch predictor
	fCond               // conditional branch
	fJSR                // call
	fRET                // return
	fFU                 // charges functional-unit energy
)

// staticsOf builds the per-static table of p under cfg.
func staticsOf(p *prog.Program, cfg Config, lineBytes int) []static {
	tab := make([]static, len(p.Ins))
	for i := range p.Ins {
		in := &p.Ins[i]
		st := &tab[i]
		st.fetchAddr = int64(i) * int64(cfg.InstrBytes)
		st.line = st.fetchAddr / int64(lineBytes)
		uses, n := in.Uses()
		for k := 0; k < n; k++ {
			if uses[k] == isa.ZeroReg {
				continue
			}
			if k == 1 {
				st.useB |= 1 << st.nUses
			}
			st.uses[st.nUses] = uses[k]
			st.nUses++
		}
		st.width = uint8(in.Width.Bytes())
		st.lat = uint8(isa.Latency(in.Op))
		if d, ok := in.Dest(); ok {
			st.dest = d
			st.flags |= fDest | fPhys
		}
		class := isa.ClassOf(in.Op)
		for _, c := range [...]struct {
			bits uint16
			on   bool
		}{
			{fPhys | fJSR, in.Op == isa.OpJSR},
			{fRET, in.Op == isa.OpRET},
			{fMul, class == isa.ClassMul},
			{fMem, isa.IsMem(in.Op)},
			{fStore, in.Op == isa.OpST},
			{fBranch, class == isa.ClassBranch},
			{fCond, isa.IsCondBranch(in.Op)},
			{fFU, class != isa.ClassBranch && class != isa.ClassNone &&
				class != isa.ClassLoad && class != isa.ClassStore && in.Op != isa.OpHALT},
		} {
			if c.on {
				st.flags |= c.bits
			}
		}
	}
	return tab
}

// NewMulti builds a fused simulator for program p whose power bank
// accrues every listed gating mode in one traversal of p's retirement
// stream. FinishAll returns one Result per mode, in the given order.
func NewMulti(p *prog.Program, cfg Config, params power.Params, modes []power.GatingMode) (*Sim, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("uarch: no gating modes requested")
	}
	hier, err := cache.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	l1i := hier.L1I.Config()
	meters := make([]*power.Meter, len(modes))
	for i, mode := range modes {
		meters[i] = power.NewMeter(params, mode)
		meters[i].SignExtendToCache = cfg.SignExtendToCache
	}
	return &Sim{
		cfg:           cfg,
		meters:        meters,
		pred:          bpred.New(cfg.Predictor),
		hier:          hier,
		static:        staticsOf(p, cfg, l1i.LineBytes),
		l1iHit:        l1i.HitCycles,
		wrongPath:     int(cfg.WrongPathFactor * float64(cfg.FetchWidth*cfg.FrontendDepth)),
		issued:        make([]int8, ringSize),
		issueEpoch:    make([]int64, ringSize),
		windowRing:    make([]int64, cfg.WindowSize),
		physRing:      make([]int64, max(1, cfg.PhysRegs-isa.NumRegs)),
		aluFree:       make([]int64, cfg.IntALUs),
		mulFree:       make([]int64, cfg.IntMulDiv),
		lastFetchLine: -1,
	}, nil
}

// Run executes the program to completion under the simulator and returns
// timing and energy results.
func Run(p *prog.Program, cfg Config, params power.Params, mode power.GatingMode) (*Result, error) {
	rs, err := RunModes(p, cfg, params, []power.GatingMode{mode})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunModes performs one functional emulation and one timing traversal of p
// while a bank of meters accrues every requested gating mode, returning
// one Result per mode (timing fields identical, energy per mode). It is
// exactly equivalent to — and bit-identical with — len(modes) independent
// Run calls, at one emulation and one timing pass of cost.
func RunModes(p *prog.Program, cfg Config, params power.Params, modes []power.GatingMode) ([]*Result, error) {
	s, err := NewMulti(p, cfg, params, modes)
	if err != nil {
		return nil, err
	}
	m := emu.Acquire(p)
	defer m.Release()
	m.Sink = s
	if err := m.Run(); err != nil {
		return nil, err
	}
	return s.FinishAll(), nil
}

// ReplayModes is RunModes driven by a captured retirement trace instead of
// a live emulation: the trace's record batches stream once through the
// fused timing core. The records reproduce the live stream exactly (the
// emu.Trace invariant), so results are identical to RunModes on the
// traced program.
func ReplayModes(tr *emu.Trace, cfg Config, params power.Params, modes []power.GatingMode) ([]*Result, error) {
	s, err := NewMulti(tr.Program(), cfg, params, modes)
	if err != nil {
		return nil, err
	}
	tr.Records(s)
	return s.FinishAll(), nil
}

// ConsumeRecs advances the pipeline model over a batch of retired
// instructions (it implements emu.RecSink).
func (s *Sim) ConsumeRecs(b emu.RecBatch) {
	// Co-slicing the columns to one length lets the loop index them
	// without per-column bounds checks.
	idxs := b.Idx
	nexts := b.Next[:len(idxs)]
	flags := b.Flags[:len(idxs)]
	addrs := b.Addr[:len(idxs)]
	values := b.Value[:len(idxs)]
	srcAs := b.SrcA[:len(idxs)]
	srcBs := b.SrcB[:len(idxs)]
	for i, idx := range idxs {
		s.consume(int(idx), int(nexts[i]), flags[i]&emu.RecTaken != 0,
			addrs[i], values[i], srcAs[i], srcBs[i])
	}
}

// consume advances the pipeline model by one retired instruction: static
// instruction idx, followed by next, with its record's operand values.
func (s *Sim) consume(idx, next int, taken bool, addr, value, srcA, srcB int64) {
	cfg := &s.cfg
	st := &s.static[idx]
	f := st.flags
	s.retired++

	// --- Fetch ---------------------------------------------------------
	if s.pendingRedirect > s.fetchCycle {
		s.fetchCycle = s.pendingRedirect
		s.fetchedInCycle = 0
		s.lastFetchLine = -1
	}
	if s.fetchedInCycle >= cfg.FetchWidth {
		s.fetchCycle++
		s.fetchedInCycle = 0
	}
	// The I-cache is read on every fetch (the line-buffer hit path is
	// folded into the per-access fixed cost); misses are modelled when
	// the fetch group crosses into a new line.
	fetchL2 := false
	if st.line != s.lastFetchLine {
		lat, l2 := s.hier.InstrAccess(st.fetchAddr)
		fetchL2 = l2
		if lat > s.l1iHit {
			s.fetchCycle += int64(lat - s.l1iHit)
			s.fetchedInCycle = 0
		}
		s.lastFetchLine = st.line
	}
	s.fetchedInCycle++
	fetch := s.fetchCycle

	// --- Rename / dispatch ----------------------------------------------
	dispatch := fetch + int64(cfg.FrontendDepth)
	// Window occupancy: cannot dispatch until the instruction
	// WindowSize back has retired.
	if w := s.windowRing[s.windowPos]; dispatch <= w {
		dispatch = w + 1
	}
	// Physical registers: a writer needs a free register, available when
	// the (PhysRegs-NumRegs)-back writer retired.
	if f&fPhys != 0 {
		if w := s.physRing[s.physPos]; dispatch <= w {
			dispatch = w + 1
		}
	}

	// --- Operand readiness ----------------------------------------------
	ready := dispatch + 1
	uses := st.uses[:st.nUses]
	for _, r := range uses {
		if t := s.regReady[r]; t > ready {
			ready = t
		}
	}

	// --- Issue ------------------------------------------------------------
	fu := s.aluFree // branches/halt resolve on an ALU port too
	if f&fMul != 0 {
		fu = s.mulFree
	}
	lat := int64(st.lat)
	issue := ready
	// Find an FU and an issue slot.
	for {
		// FU availability.
		best := -1
		for i := range fu {
			if fu[i] <= issue && (best < 0 || fu[i] < fu[best]) {
				best = i
			}
		}
		if best < 0 {
			// Earliest any unit frees.
			issue = fu[0]
			for _, t := range fu[1:] {
				issue = min(issue, t)
			}
			continue
		}
		// Issue bandwidth.
		slot := issue & (ringSize - 1)
		if s.issueEpoch[slot] != issue {
			s.issueEpoch[slot] = issue
			s.issued[slot] = 0
		}
		if int(s.issued[slot]) >= cfg.IssueWidth {
			issue++
			continue
		}
		s.issued[slot]++
		fu[best] = issue + lat
		break
	}

	// --- Execute / memory -------------------------------------------------
	done := issue + lat
	dataL2 := false
	if f&fMem != 0 {
		lat, l2 := s.hier.DataAccess(addr, f&fStore != 0)
		done = issue + int64(lat)
		dataL2 = l2
	}

	// --- Branch resolution -------------------------------------------------
	miss := false
	if f&fBranch != 0 {
		switch {
		case f&fCond != 0:
			s.pred.Predict(idx)
			miss = s.pred.Update(idx, taken)
		case f&fJSR != 0:
			s.pred.Call(idx + 1)
		case f&fRET != 0:
			miss = s.pred.Return(next)
		}
		if miss {
			s.pendingRedirect = done + int64(cfg.RedirectPenalty)
		}
	}

	// --- Energy -----------------------------------------------------------
	s.account(st, fetchL2, dataL2, miss, addr, value, srcA, srcB)

	// --- Writeback ----------------------------------------------------------
	if f&fDest != 0 {
		s.regReady[st.dest] = done
	}

	// --- Retire (in order) ---------------------------------------------------
	retire := done + 1
	if retire < s.lastRetire {
		retire = s.lastRetire
	}
	if retire == s.lastRetire {
		s.retiredInCycle++
		if s.retiredInCycle >= cfg.RetireWidth {
			retire++
			s.retiredInCycle = 0
		}
	} else {
		s.retiredInCycle = 1
	}
	s.lastRetire = retire
	s.windowRing[s.windowPos] = retire
	if s.windowPos++; s.windowPos == len(s.windowRing) {
		s.windowPos = 0
	}
	if f&fPhys != 0 {
		s.physRing[s.physPos] = retire
		if s.physPos++; s.physPos == len(s.physRing) {
			s.physPos = 0
		}
	}
}

// account charges one retired instruction's structure accesses to every
// meter in the bank, in pipeline-stage order (float sums depend on it).
// Each value's significance is computed once and shared by the whole bank.
func (s *Sim) account(st *static, fetchL2, dataL2, miss bool, addr, value, srcA, srcB int64) {
	f := st.flags
	w := int(st.width)
	sigA, sigB := power.SignificantBytes(srcA), power.SignificantBytes(srcB)
	// Dual-operand structures (instruction queue, functional units) are
	// gated by their widest operand.
	sigAB := max(sigA, sigB)
	var sigV, sigAddr int
	if f&(fMem|fPhys) != 0 {
		sigV = power.SignificantBytes(value)
	}
	if f&fMem != 0 {
		sigAddr = power.SignificantBytes(addr)
	}
	for _, m := range s.meters {
		m.AccessFixed(power.ICache)
		if fetchL2 {
			m.AccessFixed(power.L2Cache)
		}
		m.AccessFixed(power.Rename)
		if f&fMem != 0 {
			// LSQ: address CAM plus data movement. The address access is
			// a full-width (8-byte) value access.
			m.AccessSig(power.LSQ, 8, sigAddr)
			m.AccessSig(power.LSQ, w, sigV)
			m.AccessCacheSig(power.DCache, w, sigV)
			if dataL2 {
				m.AccessFixed(power.L2Cache)
			}
		}
		m.AccessSig(power.IQ, w, sigAB)
		m.AccessFixed(power.ROB)
		for k := uint8(0); k < st.nUses; k++ {
			sig := sigA
			if st.useB&(1<<k) != 0 {
				sig = sigB
			}
			m.AccessSig(power.RegFile, w, sig)
		}
		if f&fPhys != 0 {
			m.AccessSig(power.RegFile, w, sigV)
			m.AccessSig(power.RenameBuf, w, sigV)
			m.AccessSig(power.ResultBus, w, sigV)
		}
		if f&fFU != 0 {
			m.AccessSig(power.FU, w, sigAB)
		}
		if f&fBranch != 0 {
			m.AccessFixed(power.BPred)
			if miss {
				// Wrong-path energy: wasted front-end work.
				for i := 0; i < s.wrongPath; i++ {
					m.AccessFixed(power.ICache)
					m.AccessFixed(power.Rename)
				}
			}
		}
	}
}

// FinishAll closes the simulation and returns one Result per gating mode
// in the bank, in NewMulti order. Timing fields are shared (gating is
// energy-only); each Result carries its own meter. Idempotent.
func (s *Sim) FinishAll() []*Result {
	if s.results != nil {
		return s.results
	}
	cycles := s.lastRetire + 1
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(s.retired) / float64(cycles)
	}
	s.results = make([]*Result, len(s.meters))
	for i, m := range s.meters {
		m.Tick(cycles)
		s.results[i] = &Result{
			Cycles:         cycles,
			Instructions:   s.retired,
			Energy:         m,
			BranchMissRate: s.pred.MissRate(),
			L1DMissRate:    s.hier.L1D.MissRate(),
			L1IMissRate:    s.hier.L1I.MissRate(),
			IPC:            ipc,
		}
	}
	return s.results
}
