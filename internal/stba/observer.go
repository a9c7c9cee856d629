package stba

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"crve/internal/sim"
	"crve/internal/vcd"
)

// Observer is the analyzer's one comparator. It compares the port signals
// of two dumps, the first (typically RTL) and the second (typically BCA),
// each read through a source: a Live view of a running simulation, or a
// recorded dump (a vcd.Recording, which a parsed text VCD converts to)
// streamed through a vcd.Cursor. Attached to a run it is stepped at the
// end of every cycle, comparing the run against a recorded reference with
// no VCD text, no parsing and no per-cycle value searches. Compare and
// SignalRates step it over two dumps only at cycle 0 and where either
// dump changes. Report returns the same *Report either way. Sign-off, which
// runs both views in lockstep, judges alignment from port samples instead
// (Judge), into the same per-port accounting.
//
// The work per step is proportional to the signals that changed, not to
// the signals compared: each group (a port, or one signal for SignalRates)
// keeps a count of its mismatching signal pairs, and a pair is compared
// again only when either side of it changed — on a Live side per its
// kernel change journal, on a recorded side per the changes its cursor
// applies. A cycle is misaligned while the group's count is above zero.
//
// The comparison window is min of the two sides' cycle counts, each defined
// by its last signal activity exactly like File.Cycles on a parsed dump; on
// a live run the window is only known once both runs end, so each group
// keeps the intervals over which it mismatched, opened and closed where its
// count crosses zero, and Report accounts them (cycles at or past the
// window are discarded, the uncovered tail is charged as misaligned).
type Observer struct {
	a, b source
	live *Live // b, when it is a simulation that Attach samples
	// pairs holds each group's compared signals, groups[g].lo:hi.
	pairs  []pair
	groups []group
	// byA and byB list the pairs that compare each signal of a and of b.
	byA, byB fanout
	crossed  []int32 // groups whose count crossed zero during this step
	stepped  bool
}

// pair is one compared signal: its name, its index on each side, its
// group, whether the two sides differ now, and the step that last compared
// them (cycle + 1), so a pair both of whose sides changed is compared once.
type pair struct {
	name     string
	a, b     int32
	group    int32
	bad      bool
	compared uint64
}

// group is the comparison state of one port, or of one signal.
type group struct {
	name   string
	lo, hi int // the group's pairs, obs.pairs[lo:hi], sorted by name
	bad    int // mismatching pairs now
	// spans bounds the mismatch intervals [from, to) in cycle order; while
	// the group mismatches, the last one is open and only its from is set.
	spans      []uint64
	firstNames []string // all mismatching signals at the first mismatch
}

// misaligned counts the group's mismatching cycles below limit.
func (g *group) misaligned(limit uint64) uint64 {
	var n uint64
	for k := 0; k < len(g.spans) && g.spans[k] < limit; k += 2 {
		to := limit
		if k+1 < len(g.spans) {
			to = min(g.spans[k+1], limit)
		}
		n += to - g.spans[k]
	}
	return n
}

// source is one side of a comparison: the signals of one dump.
type source interface {
	numSignals() int
	signalName(i int) string
	// advance brings the source to the end of the given cycle. It returns
	// every signal's value there, indexed like signalName, and the indices
	// of the signals that may have changed since the previous advance.
	// Cycles must be non-decreasing across calls.
	advance(cycle uint64) (vals []sim.Bits, changed []int32)
	// initial returns every signal's value at the end of cycle 0.
	initial() []sim.Bits
	// cycles returns the number of cycles the source covers, defined by
	// its last activity like vcd.Recording.Cycles.
	cycles() uint64
}

// Live is a source taken from a running simulation: at the end of every
// cycle it re-reads the signals its kernel change journal noted, keeping
// each one's last sampled value and the last cycle any of them changed, the
// first sample (which reads every signal) counting as a change. That is what
// vcd.Recorder tracks, without the change stream. It is the observed side
// of an attached Observer; as a reference, its simulation must step each
// cycle before the observed one does, and once it stops, comparisons read
// its final values, as a Recording's cursor does past its last change.
type Live struct {
	sigs    []*sim.Signal
	watch   *sim.Journal
	vals    []sim.Bits // last sampled value per signal
	first   []sim.Bits // values at the first sample
	started bool
	end     uint64 // last cycle any signal changed
	// dirty journals the signals whose sampled value changed since the
	// observer last drained it.
	dirty *sim.Journal
}

// NewLive returns a reference over sigs that has not sampled yet.
func NewLive(sigs []*sim.Signal) *Live {
	return &Live{sigs: sigs, vals: make([]sim.Bits, len(sigs)), first: make([]sim.Bits, len(sigs)),
		dirty: sim.NewJournal(len(sigs))}
}

// sample takes the signals' values at the end of the given cycle: every
// signal the first time, afterwards the ones the journal noted. Cycles must
// be sampled in increasing order.
func (l *Live) sample(cycle uint64) {
	if !l.started {
		l.started, l.end = true, cycle
		for i, s := range l.sigs {
			l.vals[i] = s.Get()
		}
		copy(l.first, l.vals)
		l.watch.Drain()
		return
	}
	for _, i := range l.watch.Drain() {
		if v := l.sigs[i].Get(); v != l.vals[i] {
			l.vals[i], l.end = v, cycle
			l.dirty.Note(i)
		}
	}
}

func (l *Live) numSignals() int         { return len(l.sigs) }
func (l *Live) signalName(i int) string { return l.sigs[i].Name() }
func (l *Live) initial() []sim.Bits     { return l.first }
func (l *Live) cycles() uint64          { return l.end + 1 }

func (l *Live) advance(uint64) ([]sim.Bits, []int32) { return l.vals, l.dirty.Drain() }

// recorded serves a Recording through a streaming cursor.
type recorded struct {
	rec *vcd.Recording
	cur *vcd.Cursor
}

func newRecorded(rec *vcd.Recording) recorded { return recorded{rec: rec, cur: rec.NewCursor()} }

func (r recorded) numSignals() int         { return r.rec.NumSignals() }
func (r recorded) signalName(i int) string { return r.rec.SignalName(i) }
func (r recorded) cycles() uint64          { return r.rec.Cycles() }

func (r recorded) advance(cycle uint64) ([]sim.Bits, []int32) {
	changed := r.cur.AdvanceTo(cycle)
	return r.cur.Values(), changed
}

func (r recorded) initial() []sim.Bits {
	c := r.rec.NewCursor()
	c.AdvanceTo(0)
	return c.Values()
}

// next returns the first cycle below limit at which the recording's values
// change again, or limit.
func (r recorded) next(limit uint64) uint64 {
	if cyc, ok := r.cur.Next(); ok && cyc < limit {
		return cyc
	}
	return limit
}

// NewObserver builds an observer comparing the recording (first dump) against
// the given live signals (second dump). Ports are discovered over the union
// of both sides; a port signal present on only one side is an error, exactly
// as in Compare.
func NewObserver(rec *vcd.Recording, sigs []*sim.Signal) (*Observer, error) {
	return observe(newRecorded(rec), sigs)
}

// observe builds an observer of the live signals sigs against ref.
func observe(ref source, sigs []*sim.Signal) (*Observer, error) {
	live := NewLive(sigs)
	obs, err := newComparator(ref, live, nil, false)
	if err != nil {
		return nil, err
	}
	obs.live = live
	return obs, nil
}

// sigName is one side's signal in the name-sorted layout.
type sigName struct {
	name string
	idx  int32
}

// byName lists n signals sorted by name. When a name repeats, only its
// highest index is kept, as a name lookup filled in index order would.
func byName(n int, name func(i int) string) []sigName {
	out := make([]sigName, n)
	for i := range out {
		out[i] = sigName{name(i), int32(i)}
	}
	slices.SortFunc(out, func(a, b sigName) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return int(a.idx - b.idx)
	})
	k := 0
	for _, s := range out {
		if k > 0 && out[k-1].name == s.name {
			out[k-1] = s
			continue
		}
		out[k] = s
		k++
	}
	return out[:k]
}

// newComparator pairs the signals of a and b under each port prefix of
// ports, in order; nil ports are discovered over both sides. Each port is
// one group, or with bySignal each of its signals is. A port signal present
// on only one side is an error.
func newComparator(a, b source, ports []string, bySignal bool) (*Observer, error) {
	// The union of both sides' names in sorted order, each name with its
	// index on either side (-1 where it is missing): the signals under a
	// port are then one contiguous run, sorted by name.
	as := byName(a.numSignals(), a.signalName)
	bs := byName(b.numSignals(), b.signalName)
	union := make([]pair, 0, max(len(as), len(bs)))
	for i, j := 0, 0; i < len(as) || j < len(bs); {
		p := pair{a: -1, b: -1}
		switch {
		case j == len(bs) || i < len(as) && as[i].name <= bs[j].name:
			p.name = as[i].name
		default:
			p.name = bs[j].name
		}
		if i < len(as) && as[i].name == p.name {
			p.a = as[i].idx
			i++
		}
		if j < len(bs) && bs[j].name == p.name {
			p.b = bs[j].idx
			j++
		}
		union = append(union, p)
	}
	find := func(name string) int {
		return sort.Search(len(union), func(k int) bool { return union[k].name >= name })
	}

	if ports == nil {
		// A port is a scope holding both a req and a gnt wire on either side.
		for _, p := range union {
			if prefix, ok := strings.CutSuffix(p.name, ".req"); ok {
				if k := find(prefix + ".gnt"); k < len(union) && union[k].name == prefix+".gnt" {
					ports = append(ports, prefix)
				}
			}
		}
		sort.Strings(ports)
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("stba: no STBus ports found")
	}

	obs := &Observer{a: a, b: b, pairs: make([]pair, 0, len(union))}
	for _, port := range ports {
		under, lo := port+".", len(obs.pairs)
		for k := find(under); k < len(union) && strings.HasPrefix(union[k].name, under); k++ {
			pr := union[k]
			if pr.a < 0 {
				return nil, fmt.Errorf("stba: signal %q missing from first dump", pr.name)
			}
			if pr.b < 0 {
				return nil, fmt.Errorf("stba: signal %q missing from second dump", pr.name)
			}
			pr.group = int32(len(obs.groups))
			if bySignal {
				obs.groups = append(obs.groups, group{name: pr.name, lo: len(obs.pairs), hi: len(obs.pairs) + 1})
			}
			obs.pairs = append(obs.pairs, pr)
		}
		if len(obs.pairs) == lo {
			return nil, fmt.Errorf("stba: port %q has no signals", port)
		}
		if !bySignal {
			obs.groups = append(obs.groups, group{name: port, lo: lo, hi: len(obs.pairs)})
		}
	}
	obs.byA = newFanout(a.numSignals(), obs.pairs, func(p pair) int32 { return p.a })
	obs.byB = newFanout(b.numSignals(), obs.pairs, func(p pair) int32 { return p.b })
	return obs, nil
}

// fanout maps a signal index to the pairs comparing it: one pair, none for
// a signal outside every group, or several for a signal under nested port
// scopes.
type fanout struct {
	off, pairs []int32
}

func newFanout(n int, pairs []pair, side func(pair) int32) fanout {
	f := fanout{off: make([]int32, n+1), pairs: make([]int32, len(pairs))}
	for _, p := range pairs {
		f.off[side(p)+1]++
	}
	for i := 1; i <= n; i++ {
		f.off[i] += f.off[i-1]
	}
	next := append([]int32(nil), f.off[:n]...)
	for k, p := range pairs {
		s := side(p)
		f.pairs[next[s]] = int32(k)
		next[s]++
	}
	return f
}

func (f fanout) of(i int32) []int32 { return f.pairs[f.off[i]:f.off[i+1]] }

// Attach opens the observed side's change journal on sm, which owns its
// signals, and registers an end-of-cycle hook that samples and compares
// them, at the same points as vcd.Writer.Attach.
func (obs *Observer) Attach(sm *sim.Simulator) {
	obs.live.watch = sm.Watch(obs.live.sigs)
	sm.AtCycleEnd(func() {
		cycle := sm.Cycle() - 1
		obs.live.sample(cycle)
		obs.step(cycle)
	})
}

// step advances both sides to the end of the given cycle and compares them
// there. Cycles must be stepped in increasing order.
func (obs *Observer) step(cycle uint64) {
	aVals, aChanged := obs.a.advance(cycle)
	bVals, bChanged := obs.b.advance(cycle)
	obs.judge(cycle, aVals, bVals, aChanged, bChanged)
}

// judge compares the pairs at the given cycle — every pair at the first
// step, afterwards the pairs with a side that changed — and opens or closes
// the mismatch interval of each group whose count crossed zero.
func (obs *Observer) judge(cycle uint64, aVals, bVals []sim.Bits, aChanged, bChanged []int32) {
	compare := func(k int32) {
		pr := &obs.pairs[k]
		if pr.compared == cycle+1 {
			return
		}
		pr.compared = cycle + 1
		bad := aVals[pr.a] != bVals[pr.b]
		if bad == pr.bad {
			return
		}
		pr.bad = bad
		g := &obs.groups[pr.group]
		if bad {
			g.bad++
		} else {
			g.bad--
		}
		if g.bad == 0 || bad && g.bad == 1 {
			obs.crossed = append(obs.crossed, pr.group)
		}
	}
	if !obs.stepped {
		obs.stepped = true
		for k := range obs.pairs {
			compare(int32(k))
		}
	} else {
		for _, i := range aChanged {
			for _, k := range obs.byA.of(i) {
				compare(k)
			}
		}
		for _, i := range bChanged {
			for _, k := range obs.byB.of(i) {
				compare(k)
			}
		}
	}
	for _, gi := range obs.crossed {
		g := &obs.groups[gi]
		open := len(g.spans)%2 == 1
		if (g.bad > 0) == open {
			continue // crossed zero and back within the step
		}
		if len(g.spans) == 0 {
			for _, pr := range obs.pairs[g.lo:g.hi] {
				if pr.bad {
					g.firstNames = append(g.firstNames, pr.name)
				}
			}
		}
		g.spans = append(g.spans, cycle)
	}
	obs.crossed = obs.crossed[:0]
}

// Report finalizes the comparison: the window both sides cover is now known,
// so mismatches past it are discarded and the uncovered tail is charged as
// misaligned.
func (obs *Observer) Report() *Report {
	if !obs.stepped {
		// No samples: each side still reads as one cycle of its cycle-0
		// values, as a dump with no samples parses as one all-zero cycle.
		obs.judge(0, obs.a.initial(), obs.b.initial(), nil, nil)
	}
	return report(obs.groups, obs.a.cycles(), obs.b.cycles())
}

// report accounts each group's mismatch intervals over the window shared by
// two sides of ca and cb cycles: mismatches past it are discarded and the
// uncovered tail is charged as misaligned.
func report(groups []group, ca, cb uint64) *Report {
	shared, span := compareWindow(ca, cb)
	rep := &Report{}
	for gi := range groups {
		g := &groups[gi]
		pa := PortAlignment{
			Port: g.name, Signals: g.hi - g.lo,
			Cycles: span, CyclesA: ca, CyclesB: cb,
			Aligned:         shared - g.misaligned(shared),
			FirstDivergence: -1,
		}
		if len(g.spans) > 0 && g.spans[0] < shared {
			pa.FirstDivergence, pa.FirstDiverging = int64(g.spans[0]), g.firstNames
		} else if shared < span {
			pa.FirstDivergence = int64(shared)
		}
		rep.Ports = append(rep.Ports, pa)
	}
	return rep
}
