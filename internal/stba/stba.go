// Package stba implements the STBus Analyzer of the paper: the internal tool
// that, after a regression run of both models, "extracts from VCD files ...
// STBus transaction information" and computes, for each port, the alignment
// rate — "the number of cycles RTL and BCA signals port are aligned over
// total number of clock cycles". The sign-off target for a BCA model is a
// rate of at least 99 % on every port (SignoffRate).
package stba

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"crve/internal/vcd"
)

// SignoffRate is the per-port alignment threshold (percent) the paper uses
// to consider a BCA model signed off.
const SignoffRate = 99.0

// PortAlignment is the comparison result of one port.
type PortAlignment struct {
	Port    string
	Signals int
	// Cycles is the number of clock cycles the comparison spans: the longer
	// of the two dumps. Cycles one dump does not cover count as misaligned —
	// a model that stalls or drains early must not look aligned by omission.
	Cycles uint64
	// CyclesA and CyclesB are the cycle counts of the two dumps; when they
	// differ, the uncovered tail is charged against the alignment rate.
	CyclesA uint64
	CyclesB uint64
	// Aligned counts cycles where every signal of the port matched.
	Aligned uint64
	// FirstDivergence is the first differing cycle, or -1. When the dumps
	// agree over the shared window but one ends early, it is the first
	// uncovered cycle.
	FirstDivergence int64
	// FirstDiverging lists the signal names that differ at FirstDivergence,
	// the analyzer's debugging aid (empty when the divergence is a dump
	// ending early rather than a value mismatch).
	FirstDiverging []string
}

// Rate returns the alignment percentage (100 for an empty comparison).
func (pa PortAlignment) Rate() float64 {
	if pa.Cycles == 0 {
		return 100
	}
	return 100 * float64(pa.Aligned) / float64(pa.Cycles)
}

// Pass reports whether the port meets the sign-off rate.
func (pa PortAlignment) Pass() bool { return pa.Rate() >= SignoffRate }

// Report is a full two-dump comparison.
type Report struct {
	Ports []PortAlignment
}

// AllPass reports whether every port meets the sign-off rate. An empty
// report — nil, zero ports, or one rebuilt from a truncated record — fails:
// alignment that was never measured must not sign off vacuously (the same
// hole as the zero-run regression verdict).
func (r *Report) AllPass() bool {
	if r == nil || len(r.Ports) == 0 {
		return false
	}
	for _, p := range r.Ports {
		if !p.Pass() {
			return false
		}
	}
	return true
}

// MinRate returns the worst per-port rate (0 when no ports were compared,
// so an empty report can never clear the sign-off threshold).
func (r *Report) MinRate() float64 {
	if r == nil || len(r.Ports) == 0 {
		return 0
	}
	min := 100.0
	for _, p := range r.Ports {
		if rate := p.Rate(); rate < min {
			min = rate
		}
	}
	return min
}

// String renders the per-port table the regression tool prints.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("port                              signals  cycles  aligned    rate  verdict\n")
	for _, p := range r.Ports {
		verdict := "PASS"
		if !p.Pass() {
			verdict = "FAIL"
		}
		div := ""
		if p.FirstDivergence >= 0 {
			div = fmt.Sprintf("  (first divergence @%d", p.FirstDivergence)
			if len(p.FirstDiverging) > 0 {
				max := p.FirstDiverging
				if len(max) > 3 {
					max = max[:3]
				}
				div += ": " + strings.Join(max, ",")
			}
			div += ")"
		}
		fmt.Fprintf(&sb, "%-32s %7d %7d %8d %6.2f%%  %s%s\n",
			p.Port, p.Signals, p.Cycles, p.Aligned, p.Rate(), verdict, div)
	}
	return sb.String()
}

// DiscoverPorts finds STBus port prefixes in a dump: every scope that
// contains both a "req" and a "gnt" wire.
func DiscoverPorts(f *vcd.File) []string {
	seen := map[string]int{}
	discoverInto(f, seen)
	return portsFrom(seen)
}

// DiscoverPortsUnion finds STBus port prefixes over the union of both dumps,
// so a port present in only one of them is still discovered (and then
// reported as one-sided by Compare, instead of silently ignored).
func DiscoverPortsUnion(a, b *vcd.File) []string {
	seen := map[string]int{}
	discoverInto(a, seen)
	discoverInto(b, seen)
	return portsFrom(seen)
}

func discoverInto(f *vcd.File, seen map[string]int) {
	for _, v := range f.Vars {
		dot := strings.LastIndexByte(v.Name, '.')
		if dot < 0 {
			continue
		}
		prefix, leaf := v.Name[:dot], v.Name[dot+1:]
		if leaf == "req" {
			seen[prefix] |= 1
		}
		if leaf == "gnt" {
			seen[prefix] |= 2
		}
	}
}

func portsFrom(seen map[string]int) []string {
	var ports []string
	for p, mask := range seen {
		if mask == 3 {
			ports = append(ports, p)
		}
	}
	sort.Strings(ports)
	return ports
}

// portSignals returns the sorted union of signal names under port across
// both dumps, erroring on a signal present in only one of them.
func portSignals(a, b *vcd.File, port string) ([]string, error) {
	seen := map[string]bool{}
	for _, f := range []*vcd.File{a, b} {
		for _, v := range f.Vars {
			if strings.HasPrefix(v.Name, port+".") {
				seen[v.Name] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a.VarIndex(n) < 0 {
			return nil, fmt.Errorf("stba: signal %q missing from first dump", n)
		}
		if b.VarIndex(n) < 0 {
			return nil, fmt.Errorf("stba: signal %q missing from second dump", n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("stba: port %q has no signals", port)
	}
	return names, nil
}

// compareWindow returns the per-dump cycle counts and the shared window both
// dumps cover; the span beyond the shared window counts as misaligned.
func compareWindow(ca, cb uint64) (shared, span uint64) {
	shared, span = ca, cb
	if shared > span {
		shared, span = span, shared
	}
	return shared, span
}

// Compare computes per-port alignment between two dumps over the given port
// prefixes (discovered over the union of both dumps when nil). The rate
// denominator is the longer dump's cycle count: cycles only one dump covers
// are charged as misaligned, so a model that stops early fails sign-off.
func Compare(a, b *vcd.File, ports []string) (*Report, error) {
	if ports == nil {
		ports = DiscoverPortsUnion(a, b)
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("stba: no STBus ports found")
	}
	ca, cb := a.Cycles(), b.Cycles()
	shared, span := compareWindow(ca, cb)
	rep := &Report{}
	for _, port := range ports {
		names, err := portSignals(a, b, port)
		if err != nil {
			return nil, err
		}
		pairs := make([][2]int, len(names))
		for i, n := range names {
			pairs[i] = [2]int{a.VarIndex(n), b.VarIndex(n)}
		}
		pa := PortAlignment{
			Port: port, Signals: len(pairs),
			Cycles: span, CyclesA: ca, CyclesB: cb,
			FirstDivergence: -1,
		}
		forEachRun(a, b, pairs, shared, func(cyc, run uint64) {
			time := cyc * vcd.TimePerCycle
			ok := true
			for i, pr := range pairs {
				if !a.ValueAt(pr[0], time).Equal(b.ValueAt(pr[1], time)) {
					ok = false
					if pa.FirstDivergence < 0 {
						pa.FirstDiverging = append(pa.FirstDiverging, names[i])
						continue
					}
					break
				}
			}
			if ok {
				pa.Aligned += run
			} else if pa.FirstDivergence < 0 {
				pa.FirstDivergence = int64(cyc)
			}
		})
		if shared < span && pa.FirstDivergence < 0 {
			pa.FirstDivergence = int64(shared)
		}
		rep.Ports = append(rep.Ports, pa)
	}
	return rep, nil
}

// forEachRun splits the cycles [0, shared) into runs over which none of the
// signal pairs (a's variable, b's variable) changes in either dump, and
// calls judge once per run, in cycle order, with its first cycle and its
// length. Every cycle of a run samples the same values, so the work follows
// the dumps' changes, not their length.
func forEachRun(a, b *vcd.File, pairs [][2]int, shared uint64, judge func(cyc, n uint64)) {
	starts := []uint64{0}
	add := func(changes []vcd.Change) {
		for _, ch := range changes {
			// A change is first sampled at the cycle boundary at or after it.
			cyc := ch.Time / vcd.TimePerCycle
			if ch.Time%vcd.TimePerCycle != 0 {
				cyc++
			}
			if cyc < shared {
				starts = append(starts, cyc)
			}
		}
	}
	for _, pr := range pairs {
		add(a.Changes[pr[0]])
		add(b.Changes[pr[1]])
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	for i, cyc := range starts {
		end := shared
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		judge(cyc, end-cyc)
	}
}

// SignalRate is the alignment rate of one signal across a comparison.
type SignalRate struct {
	Signal  string
	Cycles  uint64
	Aligned uint64
}

// Rate returns the per-signal alignment percentage.
func (sr SignalRate) Rate() float64 {
	if sr.Cycles == 0 {
		return 100
	}
	return 100 * float64(sr.Aligned) / float64(sr.Cycles)
}

// SignalRates breaks a port's alignment down signal by signal — the
// analyzer's drill-down view once a port fails the sign-off rate. Like
// Compare, the denominator spans the longer dump; the uncovered tail counts
// as misaligned for every signal.
func SignalRates(a, b *vcd.File, port string) ([]SignalRate, error) {
	shared, span := compareWindow(a.Cycles(), b.Cycles())
	names, err := portSignals(a, b, port)
	if err != nil {
		return nil, err
	}
	out := make([]SignalRate, 0, len(names))
	for _, n := range names {
		ai, bi := a.VarIndex(n), b.VarIndex(n)
		sr := SignalRate{Signal: n, Cycles: span}
		forEachRun(a, b, [][2]int{{ai, bi}}, shared, func(cyc, run uint64) {
			if time := cyc * vcd.TimePerCycle; a.ValueAt(ai, time).Equal(b.ValueAt(bi, time)) {
				sr.Aligned += run
			}
		})
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rate() < out[j].Rate() })
	return out, nil
}
