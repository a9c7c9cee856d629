package sim

import (
	"slices"
	"testing"
)

// drained returns a copy of w's journal, drained.
func drained(w *Journal) []int32 { return slices.Clone(w.Drain()) }

func TestWatchNotesOncePerDrain(t *testing.T) {
	sm := New()
	cnt := sm.Signal("cnt", 8)
	dbl := sm.Signal("dbl", 8)
	quiet := sm.Signal("quiet", 8)
	sm.Seq("count", func() { cnt.SetU64(cnt.U64() + 1) })
	sm.CombOut("double", func() { dbl.SetU64(2 * cnt.U64()) }, []*Signal{dbl}, cnt)
	w := sm.Watch([]*Signal{quiet, cnt, dbl})
	// Three cycles change cnt and dbl three times each: one note apiece,
	// in the order commit first saw them.
	if err := sm.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := drained(w); !slices.Equal(got, []int32{1, 2}) {
		t.Errorf("after 3 undrained cycles: %v, want [1 2]", got)
	}
	if got := drained(w); len(got) != 0 {
		t.Errorf("second drain: %v, want empty", got)
	}
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if got := drained(w); !slices.Equal(got, []int32{1, 2}) {
		t.Errorf("after one more cycle: %v, want [1 2]", got)
	}
}

func TestWatchEqualWriteNotesNothing(t *testing.T) {
	sm := New()
	s := sm.Signal("s", 8)
	step := 0
	sm.Seq("drive", func() {
		switch step {
		case 0:
			s.SetU64(5)
		case 1:
			s.SetU64(5) // equal to the committed value
		case 2:
			s.SetU64(9) // pending...
			s.SetU64(5) // ...then cancelled by writing the current value
		}
		step++
	})
	w := sm.Watch([]*Signal{s})
	for cyc, want := range []int{1, 0, 0} {
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
		if got := drained(w); len(got) != want {
			t.Errorf("cycle %d: %d notes %v, want %d", cyc, len(got), got, want)
		}
	}
}

func TestWatchNotesGlitchThatSettlesBack(t *testing.T) {
	// g and ack form a cyclic unit. When trig rises, the first iteration
	// raises g and ack, the second lowers g again: g glitches 0 -> 1 -> 0
	// inside one settle.
	sm := New()
	trig := sm.Bool("trig")
	g := sm.Bool("g")
	ack := sm.Bool("ack")
	sm.Seq("trig", func() { trig.SetBool(true) })
	sm.CombOut("g", func() { g.SetBool(trig.Bool() != ack.Bool()) }, []*Signal{g}, trig, ack)
	sm.CombOut("ack", func() { ack.SetBool(trig.Bool()) }, []*Signal{ack}, trig, g)
	w := sm.Watch([]*Signal{g})
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if got := drained(w); !slices.Equal(got, []int32{0}) {
		t.Fatalf("glitch on g not noted: %v", got)
	}
	if g.Bool() || !ack.Bool() {
		t.Errorf("g=%v ack=%v, want g back at false and ack raised", g.Bool(), ack.Bool())
	}
}

func TestWatchTwoWatchesOneSignal(t *testing.T) {
	sm := New()
	s := sm.Signal("s", 8)
	other := sm.Signal("other", 8)
	sm.Seq("drive", func() { s.SetU64(s.U64() + 1) })
	a := sm.Watch([]*Signal{s})
	b := sm.Watch([]*Signal{other, s})
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if got := drained(a); !slices.Equal(got, []int32{0}) {
		t.Errorf("first watch: %v, want [0]", got)
	}
	if got := drained(b); !slices.Equal(got, []int32{1}) {
		t.Errorf("second watch: %v, want [1]", got)
	}
}

func TestWatchSurvivesRefreeze(t *testing.T) {
	sm := New()
	d := sm.Signal("d", 8)
	sm.Seq("drive", func() { d.SetU64(d.U64() + 1) })
	w := sm.Watch([]*Signal{d})
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	w.Drain()
	// A process registered after Step drops the levelized schedule; the
	// next Step re-freezes it and the journal keeps noting.
	q := sm.Signal("q", 8)
	sm.CombOut("copy", func() { q.Set(d.Get()) }, []*Signal{q}, d)
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if got := drained(w); !slices.Equal(got, []int32{0}) {
		t.Errorf("after re-freeze: %v, want [0]", got)
	}
	if q.U64() != d.U64() {
		t.Errorf("q = %d, want %d", q.U64(), d.U64())
	}
}

func TestWatchForeignSignalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("watching another simulator's signal should panic")
		}
	}()
	New().Watch([]*Signal{New().Signal("s", 1)})
}
