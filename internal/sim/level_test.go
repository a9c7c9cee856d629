package sim

import (
	"os"
	"strings"
	"testing"
)

// TestMain enables the strict-sensitivity debug check for the whole package
// suite: any test process reading a signal outside its sensitivity list is a
// bug in the test, not a scenario to tolerate.
func TestMain(m *testing.M) {
	StrictSensitivity = true
	os.Exit(m.Run())
}

// buildChain wires a depth-n CombOut chain s[0] -> s[1] -> ... -> s[n] with a
// Seq driver incrementing s[0].
func buildChain(sm *Simulator, depth int) []*Signal {
	sigs := make([]*Signal, depth+1)
	for i := range sigs {
		sigs[i] = sm.Signal("s", 16)
	}
	for i := 0; i < depth; i++ {
		i := i
		sm.CombOut("chain", func() { sigs[i+1].SetU64(sigs[i].U64() + 1) }, []*Signal{sigs[i+1]}, sigs[i])
	}
	sm.Seq("drive", func() { sigs[0].SetU64(sigs[0].U64() + 1) })
	return sigs
}

func TestLevelizedChainSettlesInOneDelta(t *testing.T) {
	// A depth-16 declared chain settles in exactly one ranked sweep (one
	// delta) per cycle.
	const depth = 16
	sm := New()
	sigs := buildChain(sm, depth)
	if err := sm.Step(); err != nil { // freeze + time-zero settle
		t.Fatal(err)
	}
	before := sm.DeltaCount
	const cycles = 10
	for i := 0; i < cycles; i++ {
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sm.DeltaCount - before; got != cycles {
		t.Errorf("levelized chain used %d deltas over %d cycles, want %d", got, cycles, cycles)
	}
	if want := uint64(1+cycles) + depth; sigs[depth].U64() != want {
		t.Errorf("chain output %d, want %d", sigs[depth].U64(), want)
	}
	ks := sm.Stats()
	if !ks.Levelized || ks.Ranks != depth {
		t.Errorf("stats: levelized=%v ranks=%d, want true %d", ks.Levelized, ks.Ranks, depth)
	}
	if len(ks.CyclicSCCs) != 0 {
		t.Errorf("acyclic chain reported %d cyclic SCCs", len(ks.CyclicSCCs))
	}
}

// buildCyclic wires a converging two-process combinational loop:
// x = in | y, y = x. Monotone, so it reaches a fixed point in two
// iterations; the loop is a genuine 2-process SCC.
func buildCyclic(sm *Simulator) (in, x, y *Signal) {
	in = sm.Signal("in", 8)
	x = sm.Signal("x", 8)
	y = sm.Signal("y", 8)
	sm.CombOut("x=in|y", func() { x.SetU64(in.U64() | y.U64()) }, []*Signal{x}, in, y)
	sm.CombOut("y=x", func() { y.SetU64(x.U64()) }, []*Signal{y}, x)
	sm.Seq("feed", func() { in.SetU64(in.U64()<<1 | 1) })
	return
}

func TestCyclicSCCConvergesAndMatchesLegacy(t *testing.T) {
	sm := New()
	_, _, y := buildCyclic(sm)
	var trace []uint64
	sm.AtCycleEnd(func() { trace = append(trace, y.U64()) })
	if err := sm.Run(6); err != nil {
		t.Fatal(err)
	}
	// Closed form: feed shifts a one in every cycle, so in = 2^k-1 after
	// cycle k, and the loop's fixed point is y = x = in | y = in.
	for i, got := range trace {
		if want := uint64(1)<<(i+1) - 1; got != want {
			t.Fatalf("cycle %d: y = %d, want %d", i+1, got, want)
		}
	}
	lks := sm.Stats()
	if !lks.Levelized {
		t.Fatal("levelized run reported Levelized=false")
	}
	if len(lks.CyclicSCCs) != 1 || lks.CyclicSCCs[0].Size != 2 {
		t.Fatalf("cyclic SCC inventory %+v, want one SCC of size 2", lks.CyclicSCCs)
	}
	names := strings.Join(lks.CyclicSCCs[0].Procs, ",")
	if !strings.Contains(names, "x=in|y") || !strings.Contains(names, "y=x") {
		t.Errorf("SCC members %q missing loop processes", names)
	}
}

func TestUndeclaredLateWriteMopUp(t *testing.T) {
	// cond leaves its conditional write to out undeclared, so levelization
	// has no edge from cond to dbl and sweeps dbl (registered first) before
	// it. When the write fires it feeds an already-swept process, and the
	// scheduler's mop-up pass must still reach the fixed point.
	sm := New()
	sel := sm.Signal("sel", 1)
	a := sm.Signal("a", 8)
	out := sm.Signal("out", 8)
	dbl := sm.Signal("dbl", 8)
	sm.CombOut("dbl", func() { dbl.SetU64(out.U64() * 2) }, []*Signal{dbl}, out)
	sm.CombOut("cond", func() {
		if sel.Bool() {
			out.SetU64(a.U64())
		}
	}, nil, sel, a)
	cycle := 0
	sm.Seq("drive", func() {
		cycle++
		a.SetU64(uint64(10 * cycle))
		sel.SetBool(cycle >= 2)
	})
	if err := sm.Run(3); err != nil {
		t.Fatal(err)
	}
	// cycle 3: sel held, out follows a (=30), dbl must have re-settled.
	if out.U64() != 30 || dbl.U64() != 60 {
		t.Fatalf("out=%d dbl=%d, want 30 60 (mop-up pass missed the late write)", out.U64(), dbl.U64())
	}
	// Cycles 2 and 3 each took a mop-up pass: two deltas.
	if depth := sm.Stats().SettleDepth; len(depth) < 3 || depth[2] != 2 {
		t.Fatalf("settle depth %v, want two settles of 2 deltas", depth)
	}
}

func TestStrictSensitivityPanics(t *testing.T) {
	sm := New()
	seen := sm.Signal("seen", 8)
	hidden := sm.Signal("hidden", 8)
	out := sm.Signal("out", 8)
	sm.CombOut("leaky", func() { out.SetU64(seen.U64() + hidden.U64()) }, []*Signal{out}, seen)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reading outside the sensitivity list should panic under StrictSensitivity")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "leaky") || !strings.Contains(msg, "hidden") {
			t.Fatalf("panic %v should name both the process and the signal", r)
		}
	}()
	_ = sm.Step()
}

func TestStrictSensitivityAllowsSeqAndHooks(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 8)
	b := sm.Signal("b", 8)
	sm.Seq("free", func() { b.Set(a.Get()) }) // Seq reads anything
	sm.AtCycleEnd(func() { _ = b.U64() })     // hooks read anything
	if err := sm.Run(2); err != nil {
		t.Fatal(err)
	}
}

func TestCombRegisteredAfterFreezeReElaborates(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 8)
	b := sm.Signal("b", 8)
	sm.CombOut("b=a+1", func() { b.SetU64(a.U64() + 1) }, []*Signal{b}, a)
	sm.Seq("drive", func() { a.SetU64(a.U64() + 1) })
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	// Late registration must unfreeze, re-run elaboration and include the
	// new process in the schedule.
	c := sm.Signal("c", 8)
	sm.CombOut("c=b*2", func() { c.SetU64(b.U64() * 2) }, []*Signal{c}, b)
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if c.U64() != (a.U64()+1)*2 {
		t.Fatalf("late comb not scheduled: a=%d c=%d", a.U64(), c.U64())
	}
	ks := sm.Stats()
	if !ks.Levelized || ks.Ranks != 2 {
		t.Errorf("re-elaborated stats: levelized=%v ranks=%d, want true 2", ks.Levelized, ks.Ranks)
	}
}

func TestStatsContents(t *testing.T) {
	sm := New()
	sigs := buildChain(sm, 4)
	_ = sigs
	if err := sm.Run(5); err != nil {
		t.Fatal(err)
	}
	ks := sm.Stats()
	if ks.Cycles != 5 {
		t.Errorf("Cycles=%d, want 5", ks.Cycles)
	}
	if ks.Settles != 6 { // time-zero + 5 cycles
		t.Errorf("Settles=%d, want 6", ks.Settles)
	}
	if len(ks.Procs) != 5 { // 4 combs + 1 seq
		t.Fatalf("Procs len=%d, want 5", len(ks.Procs))
	}
	var seqs int
	for _, p := range ks.Procs {
		if p.Seq {
			seqs++
			if p.Evals != 5 {
				t.Errorf("seq %q evals=%d, want 5", p.Name, p.Evals)
			}
		} else if p.Evals == 0 {
			t.Errorf("comb %q never evaluated", p.Name)
		}
	}
	if seqs != 1 {
		t.Errorf("seq count %d, want 1", seqs)
	}
	if dpc := ks.DeltasPerCycle(); dpc <= 0 {
		t.Errorf("DeltasPerCycle=%v, want > 0", dpc)
	}
	top := ks.TopProcs(2)
	if len(top) != 2 || top[0].Evals < top[1].Evals {
		t.Errorf("TopProcs not sorted by evals: %+v", top)
	}
	if len(ks.SettleDepth) == 0 {
		t.Error("settle-depth histogram empty")
	}

	// Merge doubles every counter and keeps the schedule shape.
	other := sm.Stats()
	ks.Merge(other)
	if ks.Cycles != 10 || ks.Settles != 12 {
		t.Errorf("after merge: cycles=%d settles=%d, want 10 12", ks.Cycles, ks.Settles)
	}
	for _, p := range ks.Procs {
		if p.Seq && p.Evals != 10 {
			t.Errorf("merged seq evals=%d, want 10", p.Evals)
		}
	}
}

func TestStepSteadyStateZeroAlloc(t *testing.T) {
	sm := New()
	buildChain(sm, 8)
	if err := sm.Run(3); err != nil { // warm up: freeze + buffer growth
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Step allocates %.1f times per cycle, want 0", avg)
	}
}

func TestLevelizedDeterminismMatchesLegacy(t *testing.T) {
	// A mixed design (chain + cyclic loop + xor mixer) traced against a
	// closed-form model of the same logic.
	sm := New()
	a := sm.Signal("a", 32)
	b := sm.Signal("b", 32)
	c := sm.Signal("c", 32)
	x := sm.Signal("x", 32)
	y := sm.Signal("y", 32)
	sm.CombOut("b", func() { b.SetU64(a.U64() + 3) }, []*Signal{b}, a)
	sm.CombOut("c", func() { c.SetU64(b.U64() ^ y.U64()) }, []*Signal{c}, b, y)
	sm.CombOut("x", func() { x.SetU64(a.U64() | y.U64()) }, []*Signal{x}, a, y)
	sm.CombOut("y", func() { y.SetU64(x.U64()) }, []*Signal{y}, x)
	sm.Seq("a", func() { a.SetU64(a.U64()*1103515245 + 12345) })
	var trace []uint64
	sm.AtCycleEnd(func() { trace = append(trace, c.U64()) })
	if err := sm.Run(40); err != nil {
		t.Fatal(err)
	}
	// The loop x = a | y, y = x settles at y = a | y: y accumulates every a.
	var ma, my uint32
	for i, got := range trace {
		ma = ma*1103515245 + 12345
		my |= ma
		if want := uint64((ma + 3) ^ my); got != want {
			t.Fatalf("cycle %d: c = %#x, want %#x", i+1, got, want)
		}
	}
}

func TestStatsTimingSampled(t *testing.T) {
	sm := New()
	sm.Timing = true
	sigs := buildChain(sm, 4)
	work := sm.Signal("work", 32)
	sm.CombOut("busy", func() {
		v := uint64(0)
		for i := 0; i < 1000; i++ {
			v += sigs[4].U64()
		}
		work.SetU64(v)
	}, []*Signal{work}, sigs[4])
	for i := 0; i < 200; i++ {
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ks := sm.Stats()
	var busy ProcStat
	for _, p := range ks.Procs {
		if p.Name == "busy" {
			busy = p
		}
	}
	if busy.TimeNS == 0 {
		t.Errorf("timed run recorded no wall time for the busy process")
	}
	top := ks.TopProcs(1)
	if len(top) == 0 || top[0].TimeNS == 0 {
		t.Errorf("TopProcs did not rank by time: %+v", top)
	}
}
