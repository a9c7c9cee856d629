package arb

import "fmt"

// fixedPriority grants the highest-priority requester; ties break to the
// lowest port index. With dynamic=true the per-request pri field from the
// bus replaces the static table.
type fixedPriority struct {
	prios   []uint8
	dynamic bool
}

// NewFixedPriority returns a priority arbiter. prios[i] is port i's static
// priority (higher wins). With dynamic set, the request-cell priority field
// is used instead of the static table.
func NewFixedPriority(prios []uint8, dynamic bool) Policy {
	p := make([]uint8, len(prios))
	copy(p, prios)
	return &fixedPriority{prios: p, dynamic: dynamic}
}

func (a *fixedPriority) Name() string { return "priority" }

func (a *fixedPriority) Pick(in Input) int {
	best, bestPri := -1, -1
	for i, r := range in.Req {
		if !r {
			continue
		}
		pri := int(a.prios[i])
		if a.dynamic && i < len(in.Pri) {
			pri = int(in.Pri[i])
		}
		if pri > bestPri {
			best, bestPri = i, pri
		}
	}
	return best
}

func (a *fixedPriority) Tick(Input, int) {}
func (a *fixedPriority) Reset()          {}

// roundRobin grants the first requester at or after a rotating pointer.
type roundRobin struct {
	n   int
	ptr int
}

// NewRoundRobin returns a rotating-pointer arbiter over n requesters.
func NewRoundRobin(n int) Policy { return &roundRobin{n: n} }

func (a *roundRobin) Name() string { return "roundrobin" }

func (a *roundRobin) Pick(in Input) int {
	for off := 0; off < a.n; off++ {
		i := (a.ptr + off) % a.n
		if in.Req[i] {
			return i
		}
	}
	return -1
}

func (a *roundRobin) Tick(_ Input, winner int) {
	if winner >= 0 {
		a.ptr = (winner + 1) % a.n
	}
}

func (a *roundRobin) Reset() { a.ptr = 0 }

// lru grants the requester that was granted longest ago.
type lru struct {
	stamp []uint64
	clock uint64
}

// NewLRU returns a least-recently-used arbiter over n requesters.
func NewLRU(n int) Policy { return &lru{stamp: make([]uint64, n)} }

func (a *lru) Name() string { return "lru" }

func (a *lru) Pick(in Input) int {
	best := -1
	var bestStamp uint64
	for i, r := range in.Req {
		if !r {
			continue
		}
		if best == -1 || a.stamp[i] < bestStamp {
			best, bestStamp = i, a.stamp[i]
		}
	}
	return best
}

func (a *lru) Tick(_ Input, winner int) {
	if winner >= 0 {
		a.clock++
		a.stamp[winner] = a.clock
	}
}

func (a *lru) Reset() {
	a.clock = 0
	for i := range a.stamp {
		a.stamp[i] = 0
	}
}

// latency grants the requester with the smallest slack against its
// maximum-latency budget: slack_i = limit_i - waited_i. Requests past their
// budget (negative slack) are the most urgent. Ties break to the lowest
// index.
type latency struct {
	limit  []uint32
	waited []uint32
}

// NewLatency returns a latency-based arbiter. limit[i] is port i's
// maximum-latency budget in cycles; smaller budgets yield more urgent ports.
func NewLatency(limit []uint32) Policy {
	l := make([]uint32, len(limit))
	copy(l, limit)
	return &latency{limit: l, waited: make([]uint32, len(limit))}
}

func (a *latency) Name() string { return "latency" }

func (a *latency) Pick(in Input) int {
	best := -1
	bestSlack := 0
	for i, r := range in.Req {
		if !r {
			continue
		}
		slack := int(a.limit[i]) - int(a.waited[i])
		if best == -1 || slack < bestSlack {
			best, bestSlack = i, slack
		}
	}
	return best
}

func (a *latency) Tick(in Input, winner int) {
	for i, r := range in.Req {
		if i == winner {
			a.waited[i] = 0
		} else if r {
			a.waited[i]++
		}
	}
}

func (a *latency) Reset() {
	for i := range a.waited {
		a.waited[i] = 0
	}
}

// bandwidth enforces per-port grant shares over a fixed window of cycles.
// Ports under their share outrank ports over it; within each class the
// arbiter is round-robin. The arbiter is work-conserving: if only
// over-budget ports request, one of them still wins.
type bandwidth struct {
	share  []uint32
	window uint32
	used   []uint32
	epoch  uint32
	ptr    int
}

// NewBandwidth returns a bandwidth-limiting arbiter granting each port at
// most share[i] beats per window cycles (soft limit, work-conserving).
func NewBandwidth(share []uint32, window uint32) Policy {
	if window == 0 {
		panic("arb: bandwidth window must be positive")
	}
	s := make([]uint32, len(share))
	copy(s, share)
	return &bandwidth{share: s, window: window, used: make([]uint32, len(share))}
}

func (a *bandwidth) Name() string { return "bandwidth" }

func (a *bandwidth) Pick(in Input) int {
	pick := func(eligible func(i int) bool) int {
		n := len(in.Req)
		for off := 0; off < n; off++ {
			i := (a.ptr + off) % n
			if in.Req[i] && eligible(i) {
				return i
			}
		}
		return -1
	}
	if w := pick(func(i int) bool { return a.used[i] < a.share[i] }); w >= 0 {
		return w
	}
	return pick(func(int) bool { return true })
}

func (a *bandwidth) Tick(_ Input, winner int) {
	if winner >= 0 {
		a.used[winner]++
		a.ptr = (winner + 1) % len(a.used)
	}
	a.epoch++
	if a.epoch >= a.window {
		a.epoch = 0
		for i := range a.used {
			a.used[i] = 0
		}
	}
}

func (a *bandwidth) Reset() {
	a.epoch = 0
	a.ptr = 0
	for i := range a.used {
		a.used[i] = 0
	}
}

// ProgrammablePolicy is a priority arbiter whose table is writable at run
// time through the node's register decoder (the paper's "optional
// programmable port allowing changing the arbitration priority").
type ProgrammablePolicy struct {
	reset []uint8
	prios []uint8
}

// NewProgrammable returns a programmable-priority arbiter with the given
// power-on priorities.
func NewProgrammable(prios []uint8) *ProgrammablePolicy {
	r := make([]uint8, len(prios))
	copy(r, prios)
	p := make([]uint8, len(prios))
	copy(p, prios)
	return &ProgrammablePolicy{reset: r, prios: p}
}

// Name implements Policy.
func (a *ProgrammablePolicy) Name() string { return "programmable" }

// Pick implements Policy (highest current priority, ties to lowest index).
func (a *ProgrammablePolicy) Pick(in Input) int {
	best, bestPri := -1, -1
	for i, r := range in.Req {
		if r && int(a.prios[i]) > bestPri {
			best, bestPri = i, int(a.prios[i])
		}
	}
	return best
}

// Tick implements Policy.
func (a *ProgrammablePolicy) Tick(Input, int) {}

// Reset restores the power-on priority table.
func (a *ProgrammablePolicy) Reset() { copy(a.prios, a.reset) }

// SetPriority writes port's priority register.
func (a *ProgrammablePolicy) SetPriority(port int, pri uint8) error {
	if port < 0 || port >= len(a.prios) {
		return fmt.Errorf("arb: priority register %d out of range", port)
	}
	a.prios[port] = pri
	return nil
}

// Ports returns the number of priority registers.
func (a *ProgrammablePolicy) Ports() int { return len(a.prios) }
