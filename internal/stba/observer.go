package stba

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"crve/internal/sim"
	"crve/internal/vcd"
)

// Observer is the streaming STBus Analyzer: it attaches to the second
// (typically BCA) simulation at the same cycle boundaries as vcd.Writer and
// compares live signal values against a reference from the first (RTL) view
// — either a Live reference sampled from that view's simulator stepping in
// lockstep, or a compact Recording of a finished run. No VCD text, no
// parsing, no per-cycle value searches. After the run, Report returns the
// same *Report the offline analyzer (Compare over the two views' dumps)
// produces, byte for byte.
//
// The work per cycle is proportional to the signals that changed, not to
// the signals compared: each port keeps a count of its mismatching signal
// pairs, and a pair is compared again only when either side of it changed —
// on the observed side per its kernel change journal, on a Live reference
// per that reference's journal, on a Recording per the changes its cursor
// applies. A cycle is misaligned while the port's count is above zero.
//
// The comparison window is min of the two sides' cycle counts, each defined
// by its last signal activity exactly like File.Cycles on a parsed dump; the
// window is therefore only known once both runs end, so per-port mismatches
// are kept as cycle bitsets and accounted at Report time (cycles at or past
// the window are discarded, the uncovered tail is charged as misaligned).
type Observer struct {
	ref   reference
	live  *Live // the observed side, sampled so its cycle count is known
	pairs []pair
	// byRef and byLive list the pairs that compare each reference and each
	// observed signal.
	byRef, byLive fanout
	ports         []obsPort
}

// pair is one compared signal: its name, its index on each side, whether
// the two sides differ now, and the sample that last compared them (cycle
// + 1), so a pair both of whose sides changed is compared once.
type pair struct {
	name      string
	ref, live int32
	port      int32
	bad       bool
	compared  uint64
}

// obsPort is the per-port comparison state.
type obsPort struct {
	name   string
	lo, hi int // the port's pairs, obs.pairs[lo:hi], sorted by name — Compare's order
	bad    int // mismatching pairs now

	mismatch   []uint64 // bitset of mismatching cycles
	firstCycle int64    // first mismatching cycle, or -1
	firstNames []string // all mismatching signals at firstCycle
}

// reference is the first dump of a streaming comparison.
type reference interface {
	numSignals() int
	signalName(i int) string
	// advance brings the reference to the end of the given cycle. It returns
	// every signal's value there, indexed like signalName, and the indices
	// of the signals that may have changed since the previous advance.
	// Cycles must be non-decreasing across calls.
	advance(cycle uint64) (vals []sim.Bits, changed []int32)
	// initial returns signal i's value at the end of cycle 0.
	initial(i int) sim.Bits
	// cycles returns the number of cycles the reference covers, defined by
	// its last activity like vcd.Recording.Cycles.
	cycles() uint64
}

// Live is a reference taken from a running simulation: at the end of every
// cycle it re-reads the signals its kernel change journal noted, keeping
// each one's last sampled value and the last cycle any of them changed, the
// first sample (which reads every signal) counting as a change. That is what
// vcd.Recorder tracks, without the change stream. The reference simulation
// must step each cycle before the observed one does; once it stops,
// comparisons read its final values, as a Recording's cursor does past its
// last change.
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
	l := newLive(sigs)
	l.first = make([]sim.Bits, len(sigs))
	return l
}

// newLive is NewLive without the first-sample snapshot, which only a
// reference reads: the observed side of an Observer is built with it.
func newLive(sigs []*sim.Signal) *Live {
	return &Live{sigs: sigs, vals: make([]sim.Bits, len(sigs)), dirty: sim.NewJournal(len(sigs))}
}

// Attach opens the reference's change journal on sm, which owns its
// signals, and registers an end-of-cycle hook that samples them, at the same
// points as vcd.Recorder.Attach.
func (l *Live) Attach(sm *sim.Simulator) {
	l.watch = sm.Watch(l.sigs)
	sm.AtCycleEnd(func() {
		l.sample(sm.Cycle() - 1)
	})
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
func (l *Live) initial(i int) sim.Bits  { return l.first[i] }
func (l *Live) cycles() uint64          { return l.end + 1 }

func (l *Live) advance(uint64) ([]sim.Bits, []int32) { return l.vals, l.dirty.Drain() }

// recorded serves a Recording as a reference through a streaming cursor.
type recorded struct {
	rec *vcd.Recording
	cur *vcd.Cursor
}

func (r recorded) numSignals() int         { return r.rec.NumSignals() }
func (r recorded) signalName(i int) string { return r.rec.SignalName(i) }
func (r recorded) initial(i int) sim.Bits  { return r.rec.ValueAt(i, 0) }
func (r recorded) cycles() uint64          { return r.rec.Cycles() }

func (r recorded) advance(cycle uint64) ([]sim.Bits, []int32) {
	changed := r.cur.AdvanceTo(cycle)
	return r.cur.Values(), changed
}

// NewObserver builds an observer comparing the recording (first dump) against
// the given live signals (second dump). Ports are discovered over the union
// of both sides; a port signal present on only one side is an error, exactly
// as in Compare.
func NewObserver(rec *vcd.Recording, sigs []*sim.Signal) (*Observer, error) {
	return newObserver(recorded{rec: rec, cur: rec.NewCursor()}, sigs)
}

// NewLiveObserver is NewObserver with a Live reference as the first dump:
// the two views run in lockstep and no recording is made.
func NewLiveObserver(ref *Live, sigs []*sim.Signal) (*Observer, error) {
	return newObserver(ref, sigs)
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

func newObserver(ref reference, sigs []*sim.Signal) (*Observer, error) {
	// The union of both sides' names in sorted order, each name with its
	// index on either side (-1 where it is missing): the signals under a
	// port are then one contiguous run, already in Compare's pair order.
	refs := byName(ref.numSignals(), ref.signalName)
	lives := byName(len(sigs), func(i int) string { return sigs[i].Name() })
	union := make([]pair, 0, max(len(refs), len(lives)))
	for r, l := 0, 0; r < len(refs) || l < len(lives); {
		p := pair{ref: -1, live: -1}
		switch {
		case l == len(lives) || r < len(refs) && refs[r].name <= lives[l].name:
			p.name = refs[r].name
		default:
			p.name = lives[l].name
		}
		if r < len(refs) && refs[r].name == p.name {
			p.ref = refs[r].idx
			r++
		}
		if l < len(lives) && lives[l].name == p.name {
			p.live = lives[l].idx
			l++
		}
		union = append(union, p)
	}
	find := func(name string) int {
		return sort.Search(len(union), func(k int) bool { return union[k].name >= name })
	}

	// A port is a scope holding both a req and a gnt wire on either side.
	var ports []string
	for _, p := range union {
		if prefix, ok := strings.CutSuffix(p.name, ".req"); ok {
			if k := find(prefix + ".gnt"); k < len(union) && union[k].name == prefix+".gnt" {
				ports = append(ports, prefix)
			}
		}
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("stba: no STBus ports found")
	}
	sort.Strings(ports)

	obs := &Observer{ref: ref, live: newLive(sigs), ports: make([]obsPort, len(ports)),
		pairs: make([]pair, 0, len(union))}
	for pi, port := range ports {
		under := port + "."
		p := obsPort{name: port, lo: len(obs.pairs), firstCycle: -1}
		for k := find(under); k < len(union) && strings.HasPrefix(union[k].name, under); k++ {
			pr := union[k]
			if pr.ref < 0 {
				return nil, fmt.Errorf("stba: signal %q missing from first dump", pr.name)
			}
			if pr.live < 0 {
				return nil, fmt.Errorf("stba: signal %q missing from second dump", pr.name)
			}
			pr.port = int32(pi)
			obs.pairs = append(obs.pairs, pr)
		}
		p.hi = len(obs.pairs)
		if p.hi == p.lo {
			return nil, fmt.Errorf("stba: port %q has no signals", port)
		}
		obs.ports[pi] = p
	}
	obs.byRef = newFanout(ref.numSignals(), obs.pairs, func(p pair) int32 { return p.ref })
	obs.byLive = newFanout(len(sigs), obs.pairs, func(p pair) int32 { return p.live })
	return obs, nil
}

// fanout maps a signal index to the pairs comparing it: one pair, none for
// a signal outside every port, or several for a signal under nested port
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
// signals, and registers an end-of-cycle hook that compares them, sampling
// at the same points as vcd.Writer.Attach.
func (obs *Observer) Attach(sm *sim.Simulator) {
	obs.live.watch = sm.Watch(obs.live.sigs)
	sm.AtCycleEnd(func() {
		obs.sample(sm.Cycle() - 1)
	})
}

// sample compares the port signals at the end of the given cycle: every
// pair the first time, afterwards the pairs with a side that changed.
// Cycles must be sampled in increasing order.
func (obs *Observer) sample(cycle uint64) {
	first := !obs.live.started
	obs.live.sample(cycle)
	refVals, refChanged := obs.ref.advance(cycle)
	liveVals, liveChanged := obs.live.advance(cycle)
	compare := func(k int32) {
		pr := &obs.pairs[k]
		if pr.compared == cycle+1 {
			return
		}
		pr.compared = cycle + 1
		bad := liveVals[pr.live] != refVals[pr.ref]
		if bad == pr.bad {
			return
		}
		pr.bad = bad
		if bad {
			obs.ports[pr.port].bad++
		} else {
			obs.ports[pr.port].bad--
		}
	}
	if first {
		for k := range obs.pairs {
			compare(int32(k))
		}
	} else {
		for _, i := range refChanged {
			for _, k := range obs.byRef.of(i) {
				compare(k)
			}
		}
		for _, i := range liveChanged {
			for _, k := range obs.byLive.of(i) {
				compare(k)
			}
		}
	}
	for pi := range obs.ports {
		p := &obs.ports[pi]
		if p.bad == 0 {
			continue
		}
		if p.firstCycle < 0 {
			p.firstCycle = int64(cycle)
			for _, pr := range obs.pairs[p.lo:p.hi] {
				if pr.bad {
					p.firstNames = append(p.firstNames, pr.name)
				}
			}
		}
		word := cycle / 64
		for uint64(len(p.mismatch)) <= word {
			p.mismatch = append(p.mismatch, 0)
		}
		p.mismatch[word] |= 1 << (cycle % 64)
	}
}

// Report finalizes the comparison: the window both sides cover is now known,
// so mismatches past it are discarded and the uncovered tail is charged as
// misaligned — identical accounting to Compare on the two parsed dumps.
func (obs *Observer) Report() *Report {
	ca, cb := obs.ref.cycles(), obs.live.cycles()
	if !obs.live.started {
		// No samples: the live dump would still parse as one all-zero cycle,
		// which is what cb already counts.
		for pi := range obs.ports {
			p := &obs.ports[pi]
			var zero sim.Bits
			for _, pr := range obs.pairs[p.lo:p.hi] {
				if !obs.ref.initial(int(pr.ref)).Equal(zero) {
					if p.firstCycle < 0 {
						p.firstCycle = 0
						p.firstNames = append(p.firstNames, pr.name)
					}
					p.mismatch = []uint64{1}
					break
				}
			}
		}
	}
	shared, span := compareWindow(ca, cb)
	rep := &Report{}
	for pi := range obs.ports {
		p := &obs.ports[pi]
		pa := PortAlignment{
			Port: p.name, Signals: p.hi - p.lo,
			Cycles: span, CyclesA: ca, CyclesB: cb,
			Aligned:         shared - popcountBelow(p.mismatch, shared),
			FirstDivergence: -1,
		}
		if p.firstCycle >= 0 && uint64(p.firstCycle) < shared {
			pa.FirstDivergence = p.firstCycle
			pa.FirstDiverging = p.firstNames
		} else if shared < span {
			pa.FirstDivergence = int64(shared)
		}
		rep.Ports = append(rep.Ports, pa)
	}
	return rep
}

// popcountBelow counts set bits at positions strictly below limit.
func popcountBelow(words []uint64, limit uint64) uint64 {
	var n uint64
	full := limit / 64
	for i := uint64(0); i < full && i < uint64(len(words)); i++ {
		n += uint64(bits.OnesCount64(words[i]))
	}
	if rem := limit % 64; rem != 0 && full < uint64(len(words)) {
		n += uint64(bits.OnesCount64(words[full] & (1<<rem - 1)))
	}
	return n
}
