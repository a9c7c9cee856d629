package sim

import (
	"errors"
	"fmt"
)

// DefaultMaxDeltas bounds the number of delta cycles the kernel will run
// within a single clock cycle before declaring combinational oscillation.
const DefaultMaxDeltas = 1000

// ErrOscillation is returned by Step and Run when combinational processes
// fail to reach a fixed point within MaxDeltas delta cycles, i.e. the design
// contains an unstable combinational loop.
var ErrOscillation = errors.New("sim: combinational logic did not settle (oscillation)")

// StrictSensitivity, when set before New, makes new simulators panic when a
// combinational process reads a signal outside its sensitivity list. Such a
// process is undersensitized: it would not be re-run when the signal
// changes, and the levelized scheduler would rank it against an incomplete
// input set. Test suites enable this; production callers leave it false.
var StrictSensitivity bool

// Kernel named a settling backend when the simulator had more than one.
//
// Deprecated: every simulator runs the levelized scheduler. Kernel and its
// two values exist only so perfledger's kernel probe (probeKernels) still
// compiles; nothing else may read them.
type Kernel uint8

const (
	// KernelLevelized is the only backend there is.
	//
	// Deprecated: kept only for perfledger's kernel probe; see Kernel.
	KernelLevelized Kernel = 0
	// KernelCompiled names the retired compiled backend; it selects nothing.
	//
	// Deprecated: kept only for perfledger's kernel probe; see Kernel.
	KernelCompiled Kernel = 1
)

type process struct {
	name string
	fn   func()
	seq  bool
	inQ  bool

	// id is the dense registration index among combinational processes,
	// assigned at levelization; it doubles as the deterministic tiebreaker.
	id int
	// evals counts evaluations, for the kernel profiling surface.
	evals uint64
	// sampleNS accumulates 1-in-8 sampled evaluation wall time when the
	// simulator's Timing flag is set.
	sampleNS int64

	// outs holds the signals this process declares it drives.
	outs []*Signal
	// sens is the sensitivity list as registered.
	sens []*Signal
	// sensBits is a bitset over signal IDs backing the strict-sensitivity
	// check.
	sensBits []uint64

	// unit/rank/cyclic are the levelization results (valid once levelized).
	unit   int
	rank   int
	cyclic bool
}

func (p *process) setSensBit(id int) {
	w := id >> 6
	for len(p.sensBits) <= w {
		p.sensBits = append(p.sensBits, 0)
	}
	p.sensBits[w] |= 1 << (uint(id) & 63)
}

func (p *process) sensHas(id int) bool {
	w := id >> 6
	return w < len(p.sensBits) && p.sensBits[w]&(1<<(uint(id)&63)) != 0
}

// sccUnit is one strongly connected component of the combinational process
// graph, the scheduling unit of the levelized settler. Units are kept in
// topological order of the condensation (ties within a rank break by
// registration order).
type sccUnit struct {
	procs  []*process // members, in registration order
	rank   int
	cyclic bool
	queued int // members currently woken
}

// Simulator owns a set of signals and processes and advances them under a
// single implicit synchronous clock. Cycle numbering starts at 0; within each
// cycle the kernel:
//
//  1. runs every sequential process once (they observe values settled at the
//     end of the previous cycle),
//  2. commits scheduled signal updates and settles combinational processes
//     with the levelized scheduler: one ranked sweep over the SCC
//     condensation of the process graph, iterating to a fixed point only
//     inside cyclic components,
//  3. invokes end-of-cycle hooks (monitors, tracers) which observe the fully
//     settled cycle.
type Simulator struct {
	signals []*Signal
	seqs    []*process
	combs   []*process
	hooks   []func()

	// pending and its spare are double-buffered so the settle hot loop is
	// allocation-free in steady state.
	pending   []*Signal
	pendSpare []*Signal

	// units is the topologically ordered SCC condensation, built at the
	// Step-time elaboration freeze; nil until then. Processes woken before
	// the freeze are marked inQ and counted into their units when it runs.
	units       []*sccUnit
	totalQueued int
	maxRank     int

	// evals counts process evaluations for the kernel profiling surface.
	evals uint64

	cycle uint64

	// cur is the process currently evaluating (nil outside evaluations);
	// it anchors the strict-sensitivity check.
	cur *process

	MaxDeltas int

	// Timing enables 1-in-8 sampled per-process wall-time collection for
	// Stats. Off by default: the hot loop pays only a flag check.
	Timing bool

	// Strict enables the strict-sensitivity debug check on this simulator.
	// Initialized from the package variable StrictSensitivity.
	Strict bool

	// DeltaCount accumulates the total number of delta iterations executed,
	// exposed for the kernel-convergence ablation benchmarks: one delta per
	// settle plus one per extra fixpoint iteration inside cyclic components
	// (and per mop-up pass after an undeclared write fed an already-swept
	// rank).
	DeltaCount uint64

	// settles/settleHist back the Stats settle-depth histogram.
	settles    uint64
	settleHist [settleHistBuckets]uint64
}

// New returns an empty simulator.
func New() *Simulator {
	return &Simulator{
		MaxDeltas: DefaultMaxDeltas,
		Strict:    StrictSensitivity,
	}
}

// Signal creates a new signal with the given hierarchical name and bit width.
func (sm *Simulator) Signal(name string, width int) *Signal {
	if width <= 0 || width > MaxBitsWidth {
		panic(fmt.Sprintf("sim: signal %q width %d out of range 1..%d", name, width, MaxBitsWidth))
	}
	s := &Signal{sim: sm, id: len(sm.signals), name: name, width: int32(width), mask: &maskTab[width]}
	sm.signals = append(sm.signals, s)
	return s
}

// Bool creates a 1-bit signal.
func (sm *Simulator) Bool(name string) *Signal { return sm.Signal(name, 1) }

// Signals returns all signals in creation order. The returned slice is owned
// by the simulator and must not be mutated.
func (sm *Simulator) Signals() []*Signal { return sm.signals }

// Cycle returns the number of completed clock cycles.
func (sm *Simulator) Cycle() uint64 { return sm.cycle }

// Seq registers a sequential (clocked) process, run once per cycle in
// registration order.
func (sm *Simulator) Seq(name string, fn func()) {
	sm.seqs = append(sm.seqs, &process{name: name, fn: fn, seq: true, unit: -1})
}

// CombOut registers a combinational process that drives outputs and is
// sensitive to the given signals. The process runs whenever any of them
// changes, and once at the start of simulation to establish initial outputs.
// Sensitivity (inputs) plus outputs give the levelized scheduler the
// dependency edges of the process. A write to a signal left out of outputs
// still settles, through a mop-up pass over the sweep, at the price of extra
// deltas.
func (sm *Simulator) CombOut(name string, fn func(), outputs []*Signal, sensitivity ...*Signal) {
	p := &process{name: name, fn: fn, unit: -1}
	for _, s := range sensitivity {
		if s.sim != sm {
			panic(fmt.Sprintf("sim: process %q sensitive to foreign signal %q", name, s.name))
		}
		s.sensitive = append(s.sensitive, p)
		p.setSensBit(s.id)
	}
	p.sens = append(p.sens, sensitivity...)
	for _, s := range outputs {
		if s.sim != sm {
			panic(fmt.Sprintf("sim: process %q declares foreign output %q", name, s.name))
		}
	}
	p.outs = append(p.outs, outputs...)
	sm.combs = append(sm.combs, p)
	// Any new combinational process invalidates the levelization; the next
	// Step re-freezes (and runs the new process's time-zero evaluation).
	sm.unfreeze()
	sm.wake(p)
}

// unfreeze drops the levelized schedule so the next Step re-elaborates.
// Queued wakes keep their inQ mark and are counted again at the next freeze.
func (sm *Simulator) unfreeze() {
	sm.units = nil
	sm.totalQueued = 0
}

// AtCycleEnd registers a read-only observer hook invoked after each cycle
// fully settles (monitors, tracers, checkers). Hooks must not drive signals:
// a hook write would re-settle combinational logic after other observers
// already sampled it, making "the value of the cycle" ambiguous. Anything
// that drives signals — bus functional models included — belongs in a Seq
// process.
func (sm *Simulator) AtCycleEnd(fn func()) {
	sm.hooks = append(sm.hooks, fn)
}

func (sm *Simulator) wake(p *process) {
	if p.inQ {
		return
	}
	p.inQ = true
	if sm.units != nil {
		sm.units[p.unit].queued++
		sm.totalQueued++
	}
}

// eval runs one process evaluation with the current-process context set for
// strict-sensitivity checking. With Timing set, one in eight evaluations per
// process is wall-clock sampled for the profile.
func (sm *Simulator) eval(p *process) {
	sm.cur = p
	p.evals++
	sm.evals++
	if sm.Timing && p.evals&7 == 1 {
		t0 := nowNS()
		p.fn()
		p.sampleNS += nowNS() - t0
	} else {
		p.fn()
	}
	sm.cur = nil
}

// commit applies every pending signal write, wakes the processes sensitive
// to the ones that changed and notes them on their watches, reporting
// whether any changed. An unwatched signal pays one nil check. The pending
// list is double-buffered, not reallocated.
func (sm *Simulator) commit() bool {
	pend := sm.pending
	sm.pending = sm.pendSpare[:0]
	changed := false
	for _, s := range pend {
		s.pending = false
		if s.next.Equal(s.cur) {
			continue
		}
		s.cur = s.next
		changed = true
		for _, p := range s.sensitive {
			sm.wake(p)
		}
		for r := s.watches; r != nil; r = r.next {
			r.j.Note(r.idx)
		}
	}
	sm.pendSpare = pend[:0]
	return changed
}

// settle commits pending writes and runs woken combinational processes until
// a fixed point with the levelized schedule, recording the settle-depth
// histogram.
func (sm *Simulator) settle() error {
	sm.settles++
	start := sm.DeltaCount
	err := sm.settleLevelized()
	d := sm.DeltaCount - start
	if d >= settleHistBuckets {
		d = settleHistBuckets - 1
	}
	sm.settleHist[d]++
	return err
}

// freeze is the Step-time elaboration freeze: it levelizes the process graph,
// then runs the time-zero settle as a levelized sweep over every process
// woken since the last freeze (each newly registered one included).
func (sm *Simulator) freeze() error {
	sm.buildLevels()
	return sm.settle()
}

// Step advances the simulation by one clock cycle.
func (sm *Simulator) Step() error {
	if sm.units == nil {
		if err := sm.freeze(); err != nil {
			return err
		}
	}
	for _, p := range sm.seqs {
		sm.eval(p)
	}
	if err := sm.settle(); err != nil {
		return err
	}
	sm.cycle++
	for _, h := range sm.hooks {
		h()
	}
	if len(sm.pending) > 0 {
		return fmt.Errorf("sim: cycle-end hook drove signal %q; hooks are read-only observers, use a Seq process", sm.pending[0].name)
	}
	return nil
}

// Run advances the simulation n cycles, stopping early on error.
func (sm *Simulator) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := sm.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances the simulation until done reports true or the cycle
// limit is hit, returning an error in the latter case.
func (sm *Simulator) RunUntil(done func() bool, limit int) error {
	for i := 0; i < limit; i++ {
		if done() {
			return nil
		}
		if err := sm.Step(); err != nil {
			return err
		}
	}
	if done() {
		return nil
	}
	return fmt.Errorf("sim: condition not reached within %d cycles", limit)
}
