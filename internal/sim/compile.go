// The compiled execution tier: at the elaboration freeze, after Tarjan
// ranking, every IR-declared acyclic combinational process is fused into one
// flat bytecode program over preresolved dense signal slots — no maps, no
// interface calls, no per-process closure dispatch — executed by a
// threaded-switch interpreter. The program is cut into segments wherever a
// closure process or a cyclic SCC interrupts the rank order, and the settle
// sweep interleaves segments with the PR 5 levelized units, preserving the
// exact dataflow order of the ranked schedule.
//
// Correctness argument: fused processes are acyclic pure functions of their
// declared reads, so the combinational fixed point restricted to them is
// unique and re-running a segment is idempotent on unchanged inputs. The
// settle sweep runs a segment only when a slot some member reads changed
// since its last run (the segment's dirty bit, set by the same wake path
// that queues closure processes); a clean segment would store exactly the
// values its outputs already hold, so skipping it cannot change the fixed
// point. The result is byte-identical waveforms, coverage and alignment with
// the levelized scheduler — the property TestLevelizedKernelEquivalence
// asserts across the standard matrix.

package sim

import "fmt"

// Kernel selects the combinational settling backend of a Simulator. It must
// be chosen before the first Step; ForceDeltaLoop overrides it.
type Kernel uint8

const (
	// KernelLevelized is the default backend: the PR 5 levelized scheduler
	// (one ranked sweep over the SCC condensation, closures throughout).
	KernelLevelized Kernel = iota
	// KernelCompiled layers the compiled tier on the levelized schedule:
	// IR-declared acyclic processes fuse into the flat bytecode program,
	// everything else keeps the levelized path, interleaved by rank.
	KernelCompiled
)

func (k Kernel) String() string {
	if k == KernelCompiled {
		return "compiled"
	}
	return "levelized"
}

// ParseKernel parses a backend name as accepted by -kernel flags. The empty
// string selects the default levelized backend.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "levelized":
		return KernelLevelized, nil
	case "compiled":
		return KernelCompiled, nil
	default:
		return KernelLevelized, fmt.Errorf("sim: unknown kernel %q (want levelized or compiled)", s)
	}
}

// kop enumerates the bytecode operations. Operands index the program's
// dense register file (regs), constant pool (consts) or signal slot table
// (sigs).
type kop uint8

const (
	kLoad      kop = iota // regs[dst] = sigs[a].cur
	kConst                // regs[dst] = consts[a]
	kAnd                  // regs[dst] = regs[a] & regs[b]
	kOr                   // regs[dst] = regs[a] | regs[b]
	kXor                  // regs[dst] = regs[a] ^ regs[b]
	kNot                  // regs[dst] = ^regs[a] masked to w
	kField                // regs[dst] = regs[a].Field(lo, w)
	kWithField            // regs[dst] = regs[a].WithField(lo, w, regs[b])
	kMux                  // regs[dst] = regs[a] != 0 ? regs[b] : regs[c]
	kEq                   // regs[dst] = regs[a] == regs[b]
	kLt                   // regs[dst] = regs[a] < regs[b] (unsigned)
	kAdd                  // regs[dst] = (regs[a] + regs[b]) masked to w
	kStore                // comb store: sigs[a] <- regs[b], immediate commit
	kCopy                 // comb copy: sigs[a] <- sigs[b].cur, immediate commit
	kStoreSeq             // seq store: sigs[a].Set(regs[b]) (delta semantics)
)

// kinstr is one bytecode instruction. Register and slot indices are dense
// 16-bit values resolved at compile time; a process whose translation would
// overflow them falls back to its closure.
type kinstr struct {
	op      kop
	dst     uint16
	a, b, c uint16
	lo, w   uint16
}

// progSeg is a maximal run of fused processes contiguous in the ranked unit
// order. The settle sweep executes segments in place of their members.
type progSeg struct {
	code  []kinstr
	procs []*process
	// entIdx is the segment's position in the schedule, used to detect
	// undeclared late writes that feed an already-executed segment.
	entIdx int
	// dirty marks that a slot some member reads changed since the segment
	// last ran; the sweep skips clean segments. Because fused processes are
	// pure functions of their declared reads, a clean segment would store
	// exactly the values its outputs already hold.
	dirty bool
	// runs counts executions; member processes inherit it as their
	// evaluation count. sampleNS accumulates 1-in-8 sampled wall time.
	runs     uint64
	sampleNS int64
}

// schedEnt is one entry of the compiled settle schedule: either a fused
// segment or a levelized SCC unit.
type schedEnt struct {
	seg  *progSeg
	unit *sccUnit
}

// program is the compiled form of the process graph: the fused combinational
// segments, the interleaved schedule, and the per-process programs of
// IR-declared sequential processes.
type program struct {
	consts []Bits
	sigs   []*Signal
	regs   []Bits
	segs   []*progSeg
	sched  []schedEnt

	fusedProcs int
	fusedOps   int
}

// compiler translates Expr trees of one process at a time into bytecode,
// interning constants and signal slots program-wide and reusing the register
// file across processes (segments run sequentially).
type compiler struct {
	pr       *program
	constIdx map[Bits]uint16
	sigIdx   map[*Signal]uint16

	// per-process state
	nreg    int
	maxReg  int
	loadReg map[*Signal]uint16
	code    []kinstr
	ok      bool
}

func newCompiler(pr *program) *compiler {
	return &compiler{
		pr:       pr,
		constIdx: make(map[Bits]uint16),
		sigIdx:   make(map[*Signal]uint16),
	}
}

const kMaxIdx = 1<<16 - 1

func (c *compiler) reg() uint16 {
	if c.nreg >= kMaxIdx {
		c.ok = false
		return 0
	}
	r := uint16(c.nreg)
	c.nreg++
	if c.nreg > c.maxReg {
		c.maxReg = c.nreg
	}
	return r
}

func (c *compiler) slot(s *Signal) uint16 {
	if i, hit := c.sigIdx[s]; hit {
		return i
	}
	if len(c.pr.sigs) >= kMaxIdx {
		c.ok = false
		return 0
	}
	i := uint16(len(c.pr.sigs))
	c.pr.sigs = append(c.pr.sigs, s)
	c.sigIdx[s] = i
	return i
}

func (c *compiler) constant(v Bits) uint16 {
	if i, hit := c.constIdx[v]; hit {
		return i
	}
	if len(c.pr.consts) >= kMaxIdx {
		c.ok = false
		return 0
	}
	i := uint16(len(c.pr.consts))
	c.pr.consts = append(c.pr.consts, v)
	c.constIdx[v] = i
	return i
}

func (c *compiler) emit(in kinstr) { c.code = append(c.code, in) }

// expr translates e and returns the register holding its value.
func (c *compiler) expr(e *Expr) uint16 {
	if !c.ok {
		return 0
	}
	switch e.op {
	case exRead:
		if r, hit := c.loadReg[e.sig]; hit {
			return r
		}
		r := c.reg()
		c.emit(kinstr{op: kLoad, dst: r, a: c.slot(e.sig)})
		c.loadReg[e.sig] = r
		return r
	case exConst:
		r := c.reg()
		c.emit(kinstr{op: kConst, dst: r, a: c.constant(e.k)})
		return r
	case exAnd, exOr, exXor, exEq, exLt, exAdd:
		a, b := c.expr(e.a), c.expr(e.b)
		r := c.reg()
		var op kop
		switch e.op {
		case exAnd:
			op = kAnd
		case exOr:
			op = kOr
		case exXor:
			op = kXor
		case exEq:
			op = kEq
		case exLt:
			op = kLt
		case exAdd:
			op = kAdd
		}
		c.emit(kinstr{op: op, dst: r, a: a, b: b, w: uint16(e.w)})
		return r
	case exNot:
		a := c.expr(e.a)
		r := c.reg()
		c.emit(kinstr{op: kNot, dst: r, a: a, w: uint16(e.w)})
		return r
	case exField:
		a := c.expr(e.a)
		r := c.reg()
		c.emit(kinstr{op: kField, dst: r, a: a, lo: uint16(e.lo), w: uint16(e.w)})
		return r
	case exWithField:
		a, b := c.expr(e.a), c.expr(e.b)
		r := c.reg()
		c.emit(kinstr{op: kWithField, dst: r, a: a, b: b, lo: uint16(e.lo), w: uint16(e.b.w)})
		return r
	case exMux:
		s, t, f := c.expr(e.a), c.expr(e.b), c.expr(e.c)
		r := c.reg()
		c.emit(kinstr{op: kMux, dst: r, a: s, b: t, c: f})
		return r
	default:
		panic(fmt.Sprintf("sim: bad expr op %d", e.op))
	}
}

// proc translates one IR-declared process, returning its code and whether
// the translation fit the bytecode's index space. seq selects delta-
// semantics stores.
func (c *compiler) proc(p *process, seq bool) ([]kinstr, bool) {
	c.nreg = 0
	c.loadReg = make(map[*Signal]uint16)
	c.code = nil
	c.ok = true
	for _, a := range p.ir {
		if !seq && a.Src.op == exRead {
			// Peephole: a pure slot-to-slot copy (the stbus.Bind shape)
			// needs no register round trip.
			c.emit(kinstr{op: kCopy, a: c.slot(a.Dst), b: c.slot(a.Src.sig)})
			continue
		}
		r := c.expr(a.Src)
		op := kStore
		if seq {
			op = kStoreSeq
		}
		c.emit(kinstr{op: op, a: c.slot(a.Dst), b: r})
	}
	if !c.ok {
		return nil, false
	}
	return c.code, true
}

// buildProgram compiles the frozen, levelized process graph into the fused
// program and the interleaved schedule. Only acyclic IR-declared processes
// fuse; cyclic SCCs and closure processes keep their levelized units, in
// rank order. Queued wakes of fused processes fold into their segment's
// dirty bit (segments start dirty, covering the time-zero evaluation).
func (sm *Simulator) buildProgram() {
	pr := &program{}
	c := newCompiler(pr)
	var cur *progSeg
	flush := func() {
		if cur != nil {
			pr.segs = append(pr.segs, cur)
			cur = nil
		}
	}
	for _, u := range sm.units {
		var code []kinstr
		ok := false
		if !u.cyclic && len(u.procs) == 1 && u.procs[0].ir != nil {
			code, ok = c.proc(u.procs[0], false)
		}
		if !ok {
			flush()
			pr.sched = append(pr.sched, schedEnt{unit: u})
			continue
		}
		p := u.procs[0]
		if cur == nil {
			cur = &progSeg{entIdx: len(pr.sched), dirty: true}
			pr.sched = append(pr.sched, schedEnt{seg: cur})
		}
		cur.code = append(cur.code, code...)
		cur.procs = append(cur.procs, p)
		p.fused = true
		p.seg = cur
		p.segEnt = cur.entIdx
		pr.fusedProcs++
		pr.fusedOps += len(code)
		// The segment supersedes any queued wake of the process.
		if p.inQ {
			p.inQ = false
			sm.units[p.unit].queued--
			sm.totalQueued--
		}
	}
	flush()
	// IR-declared sequential processes compile to per-process programs run
	// in their registration slot of the sequential phase.
	for _, p := range sm.seqs {
		if p.ir == nil {
			continue
		}
		if code, ok := c.proc(p, true); ok {
			p.seqCode = code
			pr.fusedProcs++
			pr.fusedOps += len(code)
		}
	}
	pr.regs = make([]Bits, c.maxReg)
	sm.prog = pr
}

// dropProgram discards the compiled schedule at unfreeze, returning fused
// processes to closure dispatch. Their evaluation counts absorb the segment
// runs so the profile stays monotonic across re-elaborations.
func (sm *Simulator) dropProgram() {
	if sm.prog == nil {
		return
	}
	for _, seg := range sm.prog.segs {
		for _, p := range seg.procs {
			p.fused = false
			p.seg = nil
			p.evals += seg.runs
		}
	}
	for _, p := range sm.seqs {
		p.seqCode = nil
	}
	sm.prog = nil
}

// exec interprets code against the program's register file and slot tables.
// It is the threaded-switch inner loop of the compiled tier: local slice
// headers hoist the bounds checks, and every operand access is a dense
// index — no maps, no interface calls, no closure dispatch.
func (sm *Simulator) exec(code []kinstr) {
	pr := sm.prog
	regs := pr.regs
	sigs := pr.sigs
	consts := pr.consts
	for i := range code {
		in := &code[i]
		switch in.op {
		case kLoad:
			regs[in.dst] = sigs[in.a].cur
		case kConst:
			regs[in.dst] = consts[in.a]
		case kAnd:
			regs[in.dst] = regs[in.a].And(regs[in.b])
		case kOr:
			regs[in.dst] = regs[in.a].Or(regs[in.b])
		case kXor:
			regs[in.dst] = regs[in.a].Xor(regs[in.b])
		case kNot:
			regs[in.dst] = regs[in.a].Not(int(in.w))
		case kField:
			regs[in.dst] = regs[in.a].Field(int(in.lo), int(in.w))
		case kWithField:
			regs[in.dst] = regs[in.a].WithField(int(in.lo), int(in.w), regs[in.b])
		case kMux:
			if regs[in.a].Bool() {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case kEq:
			regs[in.dst] = BBool(regs[in.a].Equal(regs[in.b]))
		case kLt:
			regs[in.dst] = BBool(regs[in.a].Ult(regs[in.b]))
		case kAdd:
			regs[in.dst] = regs[in.a].Add(regs[in.b]).Mask(int(in.w))
		case kStore:
			sm.storeComb(sigs[in.a], regs[in.b])
		case kCopy:
			sm.storeComb(sigs[in.a], sigs[in.b].cur)
		case kStoreSeq:
			sigs[in.a].Set(regs[in.b])
		}
	}
}

// storeComb commits v to s immediately — the compiled equivalent of a
// combinational Set followed by its commit. The value is masked to the
// signal width; an unchanged value is a no-op; a change wakes the processes
// sensitive to s (queueing closures, dirtying fused readers' segments; a
// fused reader whose segment already executed this sweep — an undeclared
// back edge — additionally flags a mop-up pass).
func (sm *Simulator) storeComb(s *Signal, v Bits) {
	m := s.mask
	v.v[0] &= m.v[0]
	v.v[1] &= m.v[1]
	v.v[2] &= m.v[2]
	v.v[3] &= m.v[3]
	if v.Equal(s.cur) {
		return
	}
	s.cur = v
	for _, p := range s.sensitive {
		sm.wake(p)
	}
}

// runSeg executes one fused segment of the settle sweep.
func (sm *Simulator) runSeg(seg *progSeg) {
	if sm.Timing && seg.runs&7 == 0 {
		t0 := nowNS()
		sm.exec(seg.code)
		seg.sampleNS += nowNS() - t0
	} else {
		sm.exec(seg.code)
	}
	seg.runs++
	sm.compiledEvals += uint64(len(seg.procs))
}

// runSeqProg executes the compiled form of an IR-declared sequential
// process in its registration slot.
func (sm *Simulator) runSeqProg(p *process) {
	p.evals++
	sm.compiledEvals++
	if sm.Timing && p.evals&7 == 1 {
		t0 := nowNS()
		sm.exec(p.seqCode)
		p.sampleNS += nowNS() - t0
		return
	}
	sm.exec(p.seqCode)
}

// settleCompiled settles one cycle under the compiled backend: commit the
// sequential phase's writes, then walk the interleaved schedule — dirty
// fused segments execute, levelized units exactly as in settleLevelized.
// The sweep repeats as a mop-up pass while closure wakes remain or an
// undeclared write fed an already-executed segment.
func (sm *Simulator) settleCompiled() error {
	sm.commit()
	deltas := uint64(1)
	for pass := 0; ; pass++ {
		if pass > sm.MaxDeltas {
			sm.DeltaCount += deltas
			return fmt.Errorf("%w after %d mop-up passes at cycle %d", ErrOscillation, pass, sm.cycle)
		}
		sm.fusedStale = false
		for ei, ent := range sm.prog.sched {
			if ent.seg != nil {
				sm.sweepPos = ei
				if ent.seg.dirty {
					ent.seg.dirty = false
					sm.runSeg(ent.seg)
				}
				continue
			}
			sm.sweepPos = ei
			u := ent.unit
			if u.queued == 0 {
				continue
			}
			if !u.cyclic {
				p := u.procs[0]
				p.inQ = false
				u.queued--
				sm.totalQueued--
				sm.eval(p)
				sm.commit()
				continue
			}
			for iter := 0; u.queued > 0; iter++ {
				if iter > sm.MaxDeltas {
					sm.DeltaCount += deltas
					return fmt.Errorf("%w after %d deltas in cyclic component %q at cycle %d",
						ErrOscillation, iter, u.procs[0].name, sm.cycle)
				}
				for _, p := range u.procs {
					if p.inQ {
						p.inQ = false
						u.queued--
						sm.totalQueued--
						sm.eval(p)
					}
				}
				sm.commit()
				if iter > 0 {
					deltas++
				}
			}
		}
		sm.sweepPos = -1
		if sm.totalQueued == 0 && !sm.fusedStale {
			break
		}
		deltas++ // mop-up pass for an undeclared back-edge
	}
	sm.DeltaCount += deltas
	return nil
}
