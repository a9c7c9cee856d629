package stba

import (
	"fmt"
	"math/bits"
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
// The comparison window is min of the two sides' cycle counts, each defined
// by its last signal activity exactly like File.Cycles on a parsed dump; the
// window is therefore only known once both runs end, so per-port mismatches
// are kept as cycle bitsets and accounted at Report time (cycles at or past
// the window are discarded, the uncovered tail is charged as misaligned).
type Observer struct {
	ref   reference
	live  *Live // the observed side, sampled so its cycle count is known
	ports []obsPort
}

// obsPort is the per-port comparison state.
type obsPort struct {
	name    string
	names   []string // signal names, sorted — Compare's pair order
	refIdx  []int    // reference index per signal
	liveIdx []int    // observed-side index per signal

	mismatch   []uint64 // bitset of mismatching cycles
	firstCycle int64    // first mismatching cycle, or -1
	firstNames []string // all mismatching signals at firstCycle
}

// reference is the first dump of a streaming comparison.
type reference interface {
	numSignals() int
	signalName(i int) string
	// valuesAt returns every signal's value at the end of the given cycle,
	// indexed like signalName. Cycles must be non-decreasing across calls.
	valuesAt(cycle uint64) []sim.Bits
	// initial returns signal i's value at the end of cycle 0.
	initial(i int) sim.Bits
	// cycles returns the number of cycles the reference covers, defined by
	// its last activity like vcd.Recording.Cycles.
	cycles() uint64
}

// Live is a reference taken from a running simulation: a hook samples its
// signals at the end of every cycle, keeping each one's last sampled value
// and the last cycle any of them changed, the first sample counting as a
// change. That is what vcd.Recorder tracks, without the change stream. The
// reference simulation must step each cycle before the observed one does;
// once it stops, comparisons read its final values, as a Recording's cursor
// does past its last change.
type Live struct {
	sigs    []*sim.Signal
	vals    []sim.Bits // last sampled value per signal
	first   []sim.Bits // values at the first sample
	started bool
	end     uint64 // last cycle any signal changed
}

// NewLive returns a reference over sigs that has not sampled yet.
func NewLive(sigs []*sim.Signal) *Live {
	return &Live{sigs: sigs, vals: make([]sim.Bits, len(sigs)), first: make([]sim.Bits, len(sigs))}
}

// Attach registers an end-of-cycle hook on sm that samples every signal,
// at the same points as vcd.Recorder.Attach.
func (l *Live) Attach(sm *sim.Simulator) {
	sm.AtCycleEnd(func() {
		l.Sample(sm.Cycle() - 1)
	})
}

// Sample takes every signal's value at the end of the given cycle. Cycles
// must be sampled in increasing order.
func (l *Live) Sample(cycle uint64) {
	if !l.started {
		l.started, l.end = true, cycle
		for i, s := range l.sigs {
			l.vals[i] = s.Get()
		}
		copy(l.first, l.vals)
		return
	}
	for i, s := range l.sigs {
		if v := s.Get(); !v.Equal(l.vals[i]) {
			l.vals[i], l.end = v, cycle
		}
	}
}

func (l *Live) numSignals() int            { return len(l.sigs) }
func (l *Live) signalName(i int) string    { return l.sigs[i].Name() }
func (l *Live) valuesAt(uint64) []sim.Bits { return l.vals }
func (l *Live) initial(i int) sim.Bits     { return l.first[i] }
func (l *Live) cycles() uint64             { return l.end + 1 }

// recorded serves a Recording as a reference through a streaming cursor.
type recorded struct {
	rec *vcd.Recording
	cur *vcd.Cursor
}

func (r recorded) numSignals() int         { return r.rec.NumSignals() }
func (r recorded) signalName(i int) string { return r.rec.SignalName(i) }
func (r recorded) initial(i int) sim.Bits  { return r.rec.ValueAt(i, 0) }
func (r recorded) cycles() uint64          { return r.rec.Cycles() }

func (r recorded) valuesAt(cycle uint64) []sim.Bits {
	r.cur.AdvanceTo(cycle)
	return r.cur.Values()
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

func newObserver(ref reference, sigs []*sim.Signal) (*Observer, error) {
	liveByName := make(map[string]int, len(sigs))
	refByName := make(map[string]int, ref.numSignals())
	names := make([]string, 0, len(sigs)+ref.numSignals())
	for i, s := range sigs {
		liveByName[s.Name()] = i
		names = append(names, s.Name())
	}
	for i := 0; i < ref.numSignals(); i++ {
		refByName[ref.signalName(i)] = i
		names = append(names, ref.signalName(i))
	}

	seen := map[string]int{}
	for _, n := range names {
		dot := strings.LastIndexByte(n, '.')
		if dot < 0 {
			continue
		}
		prefix, leaf := n[:dot], n[dot+1:]
		if leaf == "req" {
			seen[prefix] |= 1
		}
		if leaf == "gnt" {
			seen[prefix] |= 2
		}
	}
	ports := portsFrom(seen)
	if len(ports) == 0 {
		return nil, fmt.Errorf("stba: no STBus ports found")
	}

	obs := &Observer{ref: ref, live: NewLive(sigs)}
	for _, port := range ports {
		under := map[string]bool{}
		for _, n := range names {
			if strings.HasPrefix(n, port+".") {
				under[n] = true
			}
		}
		sorted := make([]string, 0, len(under))
		for n := range under {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		p := obsPort{name: port, names: sorted, firstCycle: -1}
		for _, n := range sorted {
			ri, ok := refByName[n]
			if !ok {
				return nil, fmt.Errorf("stba: signal %q missing from first dump", n)
			}
			li, ok := liveByName[n]
			if !ok {
				return nil, fmt.Errorf("stba: signal %q missing from second dump", n)
			}
			p.refIdx = append(p.refIdx, ri)
			p.liveIdx = append(p.liveIdx, li)
		}
		if len(p.names) == 0 {
			return nil, fmt.Errorf("stba: port %q has no signals", port)
		}
		obs.ports = append(obs.ports, p)
	}
	return obs, nil
}

// Attach registers an end-of-cycle hook on the live simulator, sampling at
// the same points as vcd.Writer.Attach.
func (obs *Observer) Attach(sm *sim.Simulator) {
	sm.AtCycleEnd(func() {
		obs.Sample(sm.Cycle() - 1)
	})
}

// Sample compares every port signal's live value against the reference at
// the end of the given cycle. Cycles must be sampled in increasing order.
func (obs *Observer) Sample(cycle uint64) {
	obs.live.Sample(cycle)
	live, ref := obs.live.vals, obs.ref.valuesAt(cycle)
	for pi := range obs.ports {
		p := &obs.ports[pi]
		ok := true
		for i, li := range p.liveIdx {
			if !live[li].Equal(ref[p.refIdx[i]]) {
				ok = false
				if p.firstCycle < 0 {
					p.firstNames = append(p.firstNames, p.names[i])
					continue
				}
				break
			}
		}
		if !ok {
			if p.firstCycle < 0 {
				p.firstCycle = int64(cycle)
			}
			word := cycle / 64
			for uint64(len(p.mismatch)) <= word {
				p.mismatch = append(p.mismatch, 0)
			}
			p.mismatch[word] |= 1 << (cycle % 64)
		}
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
			for i, ri := range p.refIdx {
				if !obs.ref.initial(ri).Equal(zero) {
					if p.firstCycle < 0 {
						p.firstCycle = 0
						p.firstNames = append(p.firstNames, p.names[i])
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
			Port: p.name, Signals: len(p.names),
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
