// Package stba implements the STBus Analyzer of the paper: the internal tool
// that, after a regression run of both models, "extracts from VCD files ...
// STBus transaction information" and computes, for each port, the alignment
// rate — "the number of cycles RTL and BCA signals port are aligned over
// total number of clock cycles". The sign-off target for a BCA model is a
// rate of at least 99 % on every port (SignoffRate).
package stba

import (
	"fmt"
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
	return compareDumps(a, b, ports, false)
}

// compareDumps steps the comparator over two parsed dumps, each read as a
// recording, at cycle 0 and at each cycle below the shared window where
// either dump changes: between those cycles no value changes, so no
// verdict does, and the work follows the dumps' changes, not their length.
func compareDumps(a, b *vcd.File, ports []string, bySignal bool) (*Report, error) {
	ra, rb := newRecorded(a.Recording()), newRecorded(b.Recording())
	obs, err := newComparator(ra, rb, ports, bySignal)
	if err != nil {
		return nil, err
	}
	shared, _ := compareWindow(ra.cycles(), rb.cycles())
	for cyc := uint64(0); cyc < shared; cyc = rb.next(ra.next(shared)) {
		obs.step(cyc)
	}
	return obs.Report(), nil
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
	rep, err := compareDumps(a, b, []string{port}, true)
	if err != nil {
		return nil, err
	}
	out := make([]SignalRate, 0, len(rep.Ports))
	for _, p := range rep.Ports {
		out = append(out, SignalRate{Signal: p.Port, Cycles: p.Cycles, Aligned: p.Aligned})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rate() < out[j].Rate() })
	return out, nil
}
