// Package vcd implements reading and writing of Value Change Dump files,
// the standard waveform interchange format (IEEE 1364 §18). The paper's flow
// dumps a VCD file for every regression run of both the RTL and the BCA
// model; the STBus Analyzer then compares the two dumps port by port.
//
// Writer integrates with the sim kernel: Attach registers an end-of-cycle
// hook that samples traced signals and emits value changes, with one clock
// cycle equal to TimePerCycle time units.
package vcd

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"crve/internal/sim"
)

// TimePerCycle is the number of VCD time units per simulated clock cycle.
const TimePerCycle = 10

// Writer emits a VCD file for a chosen set of signals. Declare every signal
// before the first sample; the header is written lazily on the first Sample
// (or by Flush if no samples were taken).
type Writer struct {
	w      *bufio.Writer
	module string

	sigs        []*sim.Signal
	codes       []string
	last        []sim.Bits
	headerDone  bool
	firstSample bool
	err         error
}

// NewWriter returns a Writer emitting to w. module names the top VCD scope.
func NewWriter(w io.Writer, module string) *Writer {
	return &Writer{w: bufio.NewWriter(w), module: module, firstSample: true}
}

// Declare adds a signal to the trace set. All declarations must happen
// before the first sample.
func (wr *Writer) Declare(sig *sim.Signal) {
	if wr.headerDone {
		panic("vcd: Declare after first sample")
	}
	wr.sigs = append(wr.sigs, sig)
}

// DeclareAll adds every signal of a simulator to the trace set.
func (wr *Writer) DeclareAll(sm *sim.Simulator) {
	for _, s := range sm.Signals() {
		wr.Declare(s)
	}
}

// Attach registers an end-of-cycle hook on sm that samples all declared
// signals each cycle. Call after declaring signals.
func (wr *Writer) Attach(sm *sim.Simulator) {
	sm.AtCycleEnd(func() {
		wr.Sample((sm.Cycle() - 1) * TimePerCycle)
	})
}

// idCode converts a dense index into a VCD identifier code (printable ASCII
// 33..126, little-endian base 94).
func idCode(i int) string {
	var b []byte
	for {
		b = append(b, byte('!'+i%94))
		i /= 94
		if i == 0 {
			return string(b)
		}
		i--
	}
}

func (wr *Writer) writeHeader() {
	wr.headerDone = true
	wr.codes = make([]string, len(wr.sigs))
	wr.last = make([]sim.Bits, len(wr.sigs))
	names := make([]string, len(wr.sigs))
	widths := make([]int, len(wr.sigs))
	for i, s := range wr.sigs {
		wr.codes[i] = idCode(i)
		names[i] = s.Name()
		widths[i] = s.Width()
	}
	writeDefs(wr.w, wr.module, names, widths, wr.codes)
}

// writeDefs emits the VCD declaration section — header directives plus a
// scope tree rebuilt from dotted names so hierarchy survives round-trips —
// for both the live Writer and a Recording re-serving text VCD.
func writeDefs(w io.Writer, module string, names []string, widths []int, codes []string) {
	fmt.Fprintf(w, "$date\n\treproduction run\n$end\n")
	fmt.Fprintf(w, "$version\n\tcrve vcd writer\n$end\n")
	fmt.Fprintf(w, "$timescale\n\t1ns\n$end\n")

	// Sort by hierarchical name so signals of a scope group together.
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return names[idx[a]] < names[idx[b]]
	})
	fmt.Fprintf(w, "$scope module %s $end\n", module)
	writeScope(w, "", names, widths, codes, idx)
	fmt.Fprintf(w, "$upscope $end\n")
	fmt.Fprintf(w, "$enddefinitions $end\n")
}

// writeScope emits $scope/$var declarations for all signals under prefix.
func writeScope(w io.Writer, prefix string, names []string, widths []int, codes []string, idx []int) {
	scopes, vars := map[string]bool{}, map[string]bool{}
	for _, i := range idx {
		name := names[i]
		if prefix != "" {
			if !strings.HasPrefix(name, prefix+".") {
				continue
			}
			name = name[len(prefix)+1:]
		}
		if dot := strings.IndexByte(name, '.'); dot >= 0 {
			child := name[:dot]
			if scopes[child] {
				continue
			}
			scopes[child] = true
			full := child
			if prefix != "" {
				full = prefix + "." + child
			}
			fmt.Fprintf(w, "$scope module %s $end\n", child)
			writeScope(w, full, names, widths, codes, idx)
			fmt.Fprintf(w, "$upscope $end\n")
			continue
		}
		if vars[name] {
			continue
		}
		vars[name] = true
		fmt.Fprintf(w, "$var wire %d %s %s $end\n", widths[i], codes[i], name)
	}
}

// Sample records the current value of every declared signal at the given
// time, emitting value changes for signals that differ from the previous
// sample. The first sample emits a $dumpvars block with all values.
func (wr *Writer) Sample(time uint64) {
	if wr.err != nil {
		return
	}
	if !wr.headerDone {
		wr.writeHeader()
	}
	if wr.firstSample {
		wr.firstSample = false
		fmt.Fprintf(wr.w, "#%d\n$dumpvars\n", time)
		for i, s := range wr.sigs {
			wr.emitChange(i, s.Get())
			wr.last[i] = s.Get()
		}
		fmt.Fprintf(wr.w, "$end\n")
		return
	}
	wrote := false
	for i, s := range wr.sigs {
		v := s.Get()
		if v.Equal(wr.last[i]) {
			continue
		}
		if !wrote {
			fmt.Fprintf(wr.w, "#%d\n", time)
			wrote = true
		}
		wr.emitChange(i, v)
		wr.last[i] = v
	}
}

func (wr *Writer) emitChange(i int, v sim.Bits) {
	if wr.sigs[i].Width() == 1 {
		if v.Bool() {
			fmt.Fprintf(wr.w, "1%s\n", wr.codes[i])
		} else {
			fmt.Fprintf(wr.w, "0%s\n", wr.codes[i])
		}
		return
	}
	fmt.Fprintf(wr.w, "b%s %s\n", v.BinaryString(wr.sigs[i].Width()), wr.codes[i])
}

// Flush writes buffered output and returns the first error encountered.
func (wr *Writer) Flush() error {
	if !wr.headerDone {
		wr.writeHeader()
	}
	if err := wr.w.Flush(); err != nil {
		return err
	}
	return wr.err
}
