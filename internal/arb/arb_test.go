package arb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func reqs(bits ...int) Input {
	max := 0
	for _, b := range bits {
		if b > max {
			max = b
		}
	}
	in := Input{Req: make([]bool, max+1)}
	for _, b := range bits {
		in.Req[b] = true
	}
	return in
}

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind should reject unknown names")
	}
}

func TestNewBuildsEveryKind(t *testing.T) {
	for _, k := range Kinds {
		p := New(k, 4)
		if p == nil {
			t.Fatalf("New(%v) returned nil", k)
		}
		if p.Name() != k.String() {
			t.Errorf("New(%v).Name() = %q", k, p.Name())
		}
		if w := p.Pick(Input{Req: make([]bool, 4)}); w != -1 {
			t.Errorf("%v picked %d with no requesters", k, w)
		}
	}
}

func TestFixedPriorityOrder(t *testing.T) {
	p := NewFixedPriority([]uint8{1, 9, 5}, false)
	if w := p.Pick(reqs(0, 1, 2)); w != 1 {
		t.Errorf("winner %d, want 1", w)
	}
	if w := p.Pick(reqs(0, 2)); w != 2 {
		t.Errorf("winner %d, want 2", w)
	}
	if w := p.Pick(reqs(0)); w != 0 {
		t.Errorf("winner %d, want 0", w)
	}
}

func TestFixedPriorityTieBreaksLowIndex(t *testing.T) {
	p := NewFixedPriority([]uint8{5, 5, 5}, false)
	if w := p.Pick(reqs(1, 2)); w != 1 {
		t.Errorf("tie winner %d, want 1", w)
	}
}

func TestFixedPriorityDynamic(t *testing.T) {
	p := NewFixedPriority([]uint8{9, 1}, true)
	in := Input{Req: []bool{true, true}, Pri: []uint8{2, 7}}
	if w := p.Pick(in); w != 1 {
		t.Errorf("dynamic winner %d, want 1 (signal pri wins)", w)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	p := NewRoundRobin(3)
	in := reqs(0, 1, 2)
	var seq []int
	for i := 0; i < 6; i++ {
		w := p.Pick(in)
		seq = append(seq, w)
		p.Tick(in, w)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence %v, want %v", seq, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	p := NewRoundRobin(4)
	in := reqs(1, 3)
	w := p.Pick(in)
	if w != 1 {
		t.Fatalf("first winner %d, want 1", w)
	}
	p.Tick(in, w)
	if w = p.Pick(in); w != 3 {
		t.Fatalf("second winner %d, want 3", w)
	}
}

func TestLRUPrefersOldest(t *testing.T) {
	p := NewLRU(3)
	all := reqs(0, 1, 2)
	w := p.Pick(all) // all stamps equal: lowest index
	if w != 0 {
		t.Fatalf("first %d", w)
	}
	p.Tick(all, 0)
	if w = p.Pick(all); w != 1 {
		t.Fatalf("second %d, want 1", w)
	}
	p.Tick(all, 1)
	if w = p.Pick(all); w != 2 {
		t.Fatalf("third %d, want 2", w)
	}
	p.Tick(all, 2)
	// 0 is now least recently used again.
	if w = p.Pick(all); w != 0 {
		t.Fatalf("fourth %d, want 0", w)
	}
}

func TestLatencyUrgency(t *testing.T) {
	// Port 0 has a loose budget, port 1 a tight one: under continuous
	// contention port 1 must win more often once its slack is smaller.
	p := NewLatency([]uint32{100, 2})
	in := reqs(0, 1)
	wins := [2]int{}
	for i := 0; i < 100; i++ {
		w := p.Pick(in)
		wins[w]++
		p.Tick(in, w)
	}
	if wins[1] <= wins[0] {
		t.Errorf("tight-budget port won %d of 100 (loose won %d)", wins[1], wins[0])
	}
	if wins[0] == 0 {
		t.Error("loose port must not starve")
	}
}

func TestLatencyWaitResetOnGrant(t *testing.T) {
	p := NewLatency([]uint32{5, 5})
	in := reqs(0, 1)
	w1 := p.Pick(in)
	p.Tick(in, w1)
	w2 := p.Pick(in)
	if w1 == w2 {
		t.Errorf("same winner twice under equal budgets: %d then %d", w1, w2)
	}
}

func TestBandwidthSharesRespected(t *testing.T) {
	// Port 0 gets 2 beats per 8-cycle window, port 1 gets 6.
	p := NewBandwidth([]uint32{2, 6}, 8)
	in := reqs(0, 1)
	wins := [2]int{}
	for i := 0; i < 80; i++ {
		w := p.Pick(in)
		wins[w]++
		p.Tick(in, w)
	}
	if wins[0] != 20 || wins[1] != 60 {
		t.Errorf("wins = %v, want [20 60]", wins)
	}
}

func TestBandwidthWorkConserving(t *testing.T) {
	p := NewBandwidth([]uint32{1}, 8)
	in := reqs(0)
	granted := 0
	for i := 0; i < 8; i++ {
		if w := p.Pick(in); w == 0 {
			granted++
		}
		p.Tick(in, p.Pick(in))
	}
	if granted != 8 {
		t.Errorf("sole requester granted %d of 8 cycles (must be work-conserving)", granted)
	}
}

func TestProgrammableReprogramming(t *testing.T) {
	p := NewProgrammable([]uint8{9, 1})
	in := reqs(0, 1)
	if w := p.Pick(in); w != 0 {
		t.Fatalf("initial winner %d", w)
	}
	if err := p.SetPriority(1, 15); err != nil {
		t.Fatal(err)
	}
	if w := p.Pick(in); w != 1 {
		t.Fatalf("after reprogram winner %d, want 1", w)
	}
	if p.prios[1] != 15 || p.Ports() != 2 {
		t.Error("register readback wrong")
	}
	p.Reset()
	if w := p.Pick(in); w != 0 {
		t.Fatalf("after reset winner %d, want 0", w)
	}
	if err := p.SetPriority(5, 1); err == nil {
		t.Error("out-of-range register write should fail")
	}
}

// Property: every policy only ever picks a requesting port, and picks -1
// exactly when nothing requests.
func TestPickSoundnessProperty(t *testing.T) {
	for _, k := range Kinds {
		k := k
		p := New(k, 8)
		f := func(mask uint8, seed int64) bool {
			in := Input{Req: make([]bool, 8), Pri: make([]uint8, 8)}
			rng := rand.New(rand.NewSource(seed))
			any := false
			for i := 0; i < 8; i++ {
				in.Req[i] = mask&(1<<i) != 0
				in.Pri[i] = uint8(rng.Intn(16))
				any = any || in.Req[i]
			}
			w := p.Pick(in)
			p.Tick(in, w)
			if !any {
				return w == -1
			}
			return w >= 0 && w < 8 && in.Req[w]
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

// Property: no starvation under continuous full contention for the fair
// policies (round-robin, LRU, latency, bandwidth): every port wins within a
// bounded horizon.
func TestNoStarvationProperty(t *testing.T) {
	for _, k := range []Kind{RoundRobin, LRU, Latency, Bandwidth} {
		p := New(k, 5)
		in := reqs(0, 1, 2, 3, 4)
		lastWin := make([]int, 5)
		for cyc := 0; cyc < 200; cyc++ {
			w := p.Pick(in)
			p.Tick(in, w)
			lastWin[w] = cyc
		}
		for i, lw := range lastWin {
			if 200-lw > 64 {
				t.Errorf("%v: port %d starved (last win at %d)", k, i, lw)
			}
		}
	}
}

// Property: determinism — two instances fed identical input sequences pick
// identically.
func TestDeterminismProperty(t *testing.T) {
	for _, k := range Kinds {
		a, b := New(k, 6), New(k, 6)
		rng := rand.New(rand.NewSource(42))
		for cyc := 0; cyc < 500; cyc++ {
			in := Input{Req: make([]bool, 6), Pri: make([]uint8, 6)}
			for i := range in.Req {
				in.Req[i] = rng.Intn(2) == 1
				in.Pri[i] = uint8(rng.Intn(16))
			}
			wa, wb := a.Pick(in), b.Pick(in)
			if wa != wb {
				t.Fatalf("%v diverged at cycle %d: %d vs %d", k, cyc, wa, wb)
			}
			a.Tick(in, wa)
			b.Tick(in, wb)
		}
	}
}

func TestResetRestoresState(t *testing.T) {
	for _, k := range Kinds {
		p := New(k, 4)
		in := reqs(0, 1, 2, 3)
		first := p.Pick(in)
		for i := 0; i < 10; i++ {
			w := p.Pick(in)
			p.Tick(in, w)
		}
		p.Reset()
		if got := p.Pick(in); got != first {
			t.Errorf("%v: after Reset pick = %d, want %d", k, got, first)
		}
	}
}

func TestBandwidthWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window should panic")
		}
	}()
	NewBandwidth([]uint32{1}, 0)
}
