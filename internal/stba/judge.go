package stba

import (
	"slices"
	"sort"

	"crve/internal/catg"
	"crve/internal/sim"
)

// Judge is the analyzer of sign-off. It judges the per-port alignment of
// two views run in lockstep, the first (RTL) and the second (BCA), from one
// catg.PortSample per port per view per cycle. A sample stands for its
// port's wires one for one, so a port is aligned in a cycle exactly when
// its two samples are equal, and the report is the one Compare gives over
// the two views' recordings: each view's cycle count is defined by its last
// activity, the last cycle its samples changed, and each port keeps the
// intervals over which it mismatched, accounted as Observer accounts them.
// The same comparison tells the caller whether the views agree, which is
// all an env needs to know to observe for both (core.RunPairCtx).
type Judge struct {
	groups []group // one per port, in port-name order; lo:hi spans the wires
	port   []int   // groups[g] judges the samples at index port[g]
	last   [2][]catg.PortSample
	synced []bool    // both views ran the last cycle and agreed at the port
	end    [2]uint64 // the last cycle each view's samples changed
	ran    [2]bool
	cycle  uint64
}

// NewJudge returns a judge of ports with these names, in the order of the
// samples Step takes.
func NewJudge(ports []string) *Judge {
	j := &Judge{port: make([]int, len(ports)), synced: make([]bool, len(ports))}
	for k := range j.port {
		j.port[k] = k
	}
	sort.SliceStable(j.port, func(x, y int) bool { return ports[j.port[x]] < ports[j.port[y]] })
	for _, k := range j.port {
		j.groups = append(j.groups, group{name: ports[k], hi: catg.NumWires})
	}
	for v := range j.last {
		j.last[v] = make([]catg.PortSample, len(ports))
	}
	return j
}

// Step judges the next cycle: a and b hold the two views' samples, one per
// port, and aOn and bOn report whether each view ran the cycle. A view that
// has stopped keeps its final sample. Step reports whether the two views'
// samples are equal on every port.
//
// A view's first sample and every later change are activity. While a port's
// two views agree and agreed in the last cycle, both views' last samples
// are equal, so one comparison against view A's tells both views' activity.
func (j *Judge) Step(a, b []catg.PortSample, aOn, bOn bool) bool {
	for v, on := range [2]bool{aOn, bOn} {
		if on && !j.ran[v] {
			j.ran[v], j.end[v] = true, j.cycle
		}
	}
	both := aOn && bOn
	agree := true
	for g := range j.groups {
		gr, k := &j.groups[g], j.port[g]
		bad := a[k] != b[k]
		agree = agree && !bad
		if open := len(gr.spans)%2 == 1; bad != open {
			if len(gr.spans) == 0 {
				gr.firstNames = diverging(gr.name, &a[k], &b[k])
			}
			gr.spans = append(gr.spans, j.cycle)
		}
		if both && !bad && j.synced[k] {
			if a[k] != j.last[0][k] {
				j.last[0][k], j.last[1][k] = a[k], a[k]
				j.end = [2]uint64{j.cycle, j.cycle}
			}
		} else {
			if aOn {
				j.track(0, k, &a[k])
			}
			if bOn {
				j.track(1, k, &b[k])
			}
		}
		j.synced[k] = both && !bad
	}
	j.cycle++
	return agree
}

// track notes view v's sample s at port k, an activity if it changed.
func (j *Judge) track(v, k int, s *catg.PortSample) {
	if *s != j.last[v][k] {
		j.last[v][k], j.end[v] = *s, j.cycle
	}
}

// diverging lists the signals of port that differ between samples a and b,
// sorted by name as the observer sorts a port's signals.
func diverging(port string, a, b *catg.PortSample) []string {
	var va, vb [catg.NumWires]sim.Bits
	a.Values(va[:])
	b.Values(vb[:])
	var names []string
	for i := range va {
		if va[i] != vb[i] {
			names = append(names, port+"."+catg.WireName(i))
		}
	}
	slices.Sort(names)
	return names
}

// Report finalizes the comparison over the window both views cover. A view
// that never ran reads as one all-zero cycle, as a dump with no samples
// parses.
func (j *Judge) Report() *Report {
	return report(j.groups, j.end[0]+1, j.end[1]+1)
}
