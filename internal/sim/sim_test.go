package sim

import (
	"errors"
	"testing"
)

func TestSeqRegisterSemantics(t *testing.T) {
	sm := New()
	d := sm.Signal("d", 8)
	q := sm.Signal("q", 8)
	sm.Seq("reg", func() { q.Set(d.Get()) })

	d.force(B64(7))
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if q.U64() != 7 {
		t.Fatalf("after 1 cycle q=%d, want 7", q.U64())
	}
}

func TestSeqReadsPreviousCycleValue(t *testing.T) {
	// Two back-to-back registers form a 2-stage shift: both Seq processes
	// must observe pre-edge values regardless of registration order.
	sm := New()
	d := sm.Signal("d", 8)
	q1 := sm.Signal("q1", 8)
	q2 := sm.Signal("q2", 8)
	sm.Seq("s2", func() { q2.Set(q1.Get()) }) // registered before s1 on purpose
	sm.Seq("s1", func() { q1.Set(d.Get()) })

	d.force(B64(5))
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if q1.U64() != 5 || q2.U64() != 0 {
		t.Fatalf("cycle 1: q1=%d q2=%d, want 5 0", q1.U64(), q2.U64())
	}
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if q2.U64() != 5 {
		t.Fatalf("cycle 2: q2=%d, want 5", q2.U64())
	}
}

func TestCombSettlesChain(t *testing.T) {
	// a -> b -> c combinational chain must settle within one cycle.
	sm := New()
	a := sm.Signal("a", 8)
	b := sm.Signal("b", 8)
	c := sm.Signal("c", 8)
	sm.CombOut("b=a+1", func() { b.SetU64(a.U64() + 1) }, []*Signal{b}, a)
	sm.CombOut("c=b*2", func() { c.SetU64(b.U64() * 2) }, []*Signal{c}, b)
	sm.Seq("drive", func() { a.SetU64(a.U64() + 1) })

	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if a.U64() != 1 || b.U64() != 2 || c.U64() != 4 {
		t.Fatalf("a=%d b=%d c=%d, want 1 2 4", a.U64(), b.U64(), c.U64())
	}
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if c.U64() != 6 {
		t.Fatalf("c=%d, want 6", c.U64())
	}
}

func TestCombInitialSettle(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 4)
	inv := sm.Signal("inv", 4)
	sm.CombOut("inv", func() { inv.Set(a.Get().Not(4)) }, []*Signal{inv}, a)
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if inv.U64() != 0xf {
		t.Fatalf("inv=%#x, want 0xf (comb must run at time 0)", inv.U64())
	}
}

func TestOscillationDetected(t *testing.T) {
	sm := New()
	a := sm.Bool("a")
	sm.CombOut("not-a", func() { a.SetBool(!a.Bool()) }, []*Signal{a}, a)
	sm.Seq("kick", func() { a.SetBool(true) })
	err := sm.Step()
	if !errors.Is(err, ErrOscillation) {
		t.Fatalf("err = %v, want ErrOscillation", err)
	}
}

func TestSetEqualValueCancelsPending(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 8)
	fired := 0
	sm.CombOut("watch", func() { fired++ }, nil, a)
	sm.Seq("noop", func() {
		a.SetU64(1)
		a.SetU64(0) // back to current value: no net change
	})
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	// fired==1 from the initial time-zero evaluation only.
	if fired != 1 {
		t.Fatalf("comb fired %d times, want 1 (no change committed)", fired)
	}
}

func TestAtCycleEndObservesSettledValues(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 8)
	dbl := sm.Signal("dbl", 8)
	sm.CombOut("dbl", func() { dbl.SetU64(a.U64() * 2) }, []*Signal{dbl}, a)
	sm.Seq("count", func() { a.SetU64(a.U64() + 1) })
	var seen []uint64
	sm.AtCycleEnd(func() { seen = append(seen, dbl.U64()) })
	if err := sm.Run(3); err != nil {
		t.Fatal(err)
	}
	want := []uint64{2, 4, 6}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook saw %v, want %v", seen, want)
		}
	}
}

func TestHookDrivingSignalIsRejected(t *testing.T) {
	// Cycle-end hooks are read-only observers: a hook that drives a signal
	// would re-settle combinational logic after other observers sampled it.
	sm := New()
	stim := sm.Signal("stim", 8)
	sm.AtCycleEnd(func() { stim.SetU64(1) })
	if err := sm.Step(); err == nil {
		t.Fatal("driving from a hook should be an error")
	}
}

func TestSeqDriverVisibleSameCycleToComb(t *testing.T) {
	// A Seq BFM drive settles within the same cycle, so combinational logic
	// (e.g. a grant tree) responds in that cycle.
	sm := New()
	req := sm.Bool("req")
	gnt := sm.Bool("gnt")
	sm.CombOut("grant", func() { gnt.SetBool(req.Bool()) }, []*Signal{gnt}, req)
	sm.Seq("bfm", func() { req.SetBool(true) })
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if !gnt.Bool() {
		t.Fatal("comb grant must settle in the drive cycle")
	}
}

func TestRunUntil(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 16)
	sm.Seq("count", func() { a.SetU64(a.U64() + 1) })
	if err := sm.RunUntil(func() bool { return a.U64() == 5 }, 100); err != nil {
		t.Fatal(err)
	}
	if a.U64() != 5 || sm.Cycle() != 5 {
		t.Fatalf("a=%d cycle=%d, want 5 5", a.U64(), sm.Cycle())
	}
	if err := sm.RunUntil(func() bool { return false }, 3); err == nil {
		t.Fatal("RunUntil should fail when limit hit")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		sm := New()
		a := sm.Signal("a", 32)
		b := sm.Signal("b", 32)
		c := sm.Signal("c", 32)
		sm.CombOut("c", func() { c.SetU64(a.U64() ^ b.U64()) }, []*Signal{c}, a, b)
		sm.Seq("a", func() { a.SetU64(a.U64()*1103515245 + 12345) })
		sm.Seq("b", func() { b.SetU64(b.U64() + c.U64() + 1) })
		var trace []uint64
		sm.AtCycleEnd(func() { trace = append(trace, c.U64()) })
		if err := sm.Run(50); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	t1, t2 := run(), run()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("non-deterministic at cycle %d: %d vs %d", i, t1[i], t2[i])
		}
	}
}

func TestScopeNaming(t *testing.T) {
	sm := New()
	top := Root(sm)
	node := top.Sub("node")
	p0 := node.Sub("init0")
	s := p0.Signal("req", 1)
	if s.Name() != "node.init0.req" {
		t.Fatalf("name = %q", s.Name())
	}
	if p0.Path() != "node.init0" {
		t.Fatalf("path = %q", p0.Path())
	}
	if node.Sim() != sm {
		t.Fatal("scope lost simulator")
	}
}

func TestSignalWidthValidation(t *testing.T) {
	sm := New()
	for _, w := range []int{0, -1, MaxBitsWidth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d should panic", w)
				}
			}()
			sm.Signal("bad", w)
		}()
	}
}

func TestSignalIDsDense(t *testing.T) {
	sm := New()
	for i := 0; i < 10; i++ {
		s := sm.Signal("s", 1)
		if s.ID() != i {
			t.Fatalf("signal %d has id %d", i, s.ID())
		}
	}
	if len(sm.Signals()) != 10 {
		t.Fatalf("Signals() len = %d", len(sm.Signals()))
	}
}

func TestMaxDeltasBoundary(t *testing.T) {
	// A cyclic component that counts itself up to depth needs depth+1
	// iterations to reach its fixed point: MaxDeltas just above that must
	// succeed, just below must fail.
	build := func(maxDeltas int) error {
		sm := New()
		sm.MaxDeltas = maxDeltas
		const depth = 20
		s := sm.Signal("s", 16)
		sm.CombOut("count", func() {
			if v := s.U64(); v < depth {
				s.SetU64(v + 1)
			}
		}, []*Signal{s}, s)
		return sm.Step()
	}
	if err := build(depth25); err != nil {
		t.Errorf("deep-enough delta budget failed: %v", err)
	}
	if err := build(3); !errors.Is(err, ErrOscillation) {
		t.Errorf("tiny delta budget should hit the oscillation guard, got %v", err)
	}
}

const depth25 = 25

func TestManySignalsStress(t *testing.T) {
	sm := New()
	const n = 500
	var prev *Signal
	first := sm.Signal("s0", 32)
	prev = first
	for i := 1; i < n; i++ {
		cur := sm.Signal("s", 32)
		p := prev
		sm.Seq("shift", func() { cur.Set(p.Get()) })
		prev = cur
	}
	sm.Seq("feed", func() { first.SetU64(first.U64() + 1) })
	if err := sm.Run(n + 5); err != nil {
		t.Fatal(err)
	}
	if prev.U64() == 0 {
		t.Error("value never propagated through the 500-stage shift chain")
	}
}

func TestRunStopsOnError(t *testing.T) {
	sm := New()
	a := sm.Bool("a")
	sm.CombOut("osc", func() { a.SetBool(!a.Bool()) }, []*Signal{a}, a)
	sm.Seq("kick", func() { a.SetBool(true) })
	if err := sm.Run(10); err == nil {
		t.Fatal("Run should propagate the oscillation error")
	}
	if sm.Cycle() > 1 {
		t.Errorf("Run continued after error (cycle %d)", sm.Cycle())
	}
}

func TestDeltaCountAccumulates(t *testing.T) {
	sm := New()
	a := sm.Signal("a", 8)
	b := sm.Signal("b", 8)
	sm.CombOut("b", func() { b.SetU64(a.U64() + 1) }, []*Signal{b}, a)
	sm.Seq("a", func() { a.SetU64(a.U64() + 1) })
	if err := sm.Run(10); err != nil {
		t.Fatal(err)
	}
	if sm.DeltaCount == 0 {
		t.Error("DeltaCount not accumulating")
	}
}
