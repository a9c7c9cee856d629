package vcd

import (
	"fmt"

	"crve/internal/sim"
	"crve/internal/wire"
)

// This file is the compact binary waveform sidecar: the artifact tier that
// replaces text VCD on the regression hot path. A Recorder samples signals at
// the same cycle boundaries as Writer but keeps the changes as an in-memory
// frame stream instead of serialized text; a Recording answers value queries
// without any parsing (the streaming STBus Analyzer attaches a Cursor), and
// Encode/Decode give the cache/service tier a storable record — varint
// time-deltas plus changed-signal frames — that can re-serve either raw
// values or the byte-identical text VCD on demand.

// streamChange is one recorded value change: signal sig (declare index) took
// value val at the end of clock cycle cycle. The stream is ordered by
// (cycle, sig), exactly the order Writer would have emitted the change in.
type streamChange struct {
	cycle uint64
	sig   int32
	val   sim.Bits
}

// Recording is a captured waveform: per-signal metadata plus the ordered
// change stream. The zero value is an empty recording of no signals.
type Recording struct {
	module string
	names  []string
	widths []int
	stream []streamChange

	// endCycle is the last cycle any change was recorded (the binary analog
	// of a VCD file's EndTime); samples counts Sample invocations.
	endCycle uint64
	samples  uint64

	byName map[string]int
}

// Module returns the top scope name the recording re-serves VCD under.
func (rec *Recording) Module() string { return rec.module }

// NumSignals returns the number of recorded signals.
func (rec *Recording) NumSignals() int { return len(rec.names) }

// SignalName returns the hierarchical name of signal i (declare order).
func (rec *Recording) SignalName(i int) string { return rec.names[i] }

// SignalWidth returns the bit width of signal i.
func (rec *Recording) SignalWidth(i int) int { return rec.widths[i] }

// SignalIndex returns the declare index of the named signal, or -1.
func (rec *Recording) SignalIndex(name string) int {
	if i, ok := rec.byName[name]; ok {
		return i
	}
	return -1
}

// Changes returns the total number of recorded value changes.
func (rec *Recording) Changes() int { return len(rec.stream) }

// Samples returns the number of cycle samples taken.
func (rec *Recording) Samples() uint64 { return rec.samples }

// Cycles returns the number of clock cycles the recording covers, defined —
// exactly like File.Cycles on a parsed dump — by the last recorded activity,
// so alignment windows computed from a recording and from its text VCD
// rendering agree.
func (rec *Recording) Cycles() uint64 { return rec.endCycle + 1 }

// Recorder captures a compact Recording from live simulation signals. It
// mirrors Writer's protocol: Declare every signal, Attach (or call Sample
// per cycle), then read Recording() once the run completes.
type Recorder struct {
	rec     *Recording
	sigs    []*sim.Signal
	last    []sim.Bits
	started bool
}

// NewRecorder returns an empty Recorder; module names the top scope used
// when the recording is re-served as text VCD.
func NewRecorder(module string) *Recorder {
	return &Recorder{rec: &Recording{module: module, byName: map[string]int{}}}
}

// Declare adds a signal to the capture set. All declarations must happen
// before the first sample.
func (r *Recorder) Declare(sig *sim.Signal) {
	if r.started {
		panic("vcd: Recorder.Declare after first sample")
	}
	r.rec.byName[sig.Name()] = len(r.sigs)
	r.rec.names = append(r.rec.names, sig.Name())
	r.rec.widths = append(r.rec.widths, sig.Width())
	r.sigs = append(r.sigs, sig)
}

// DeclareAll adds every signal of a simulator to the capture set.
func (r *Recorder) DeclareAll(sm *sim.Simulator) {
	for _, s := range sm.Signals() {
		r.Declare(s)
	}
}

// Attach registers an end-of-cycle hook on sm that samples all declared
// signals each cycle — the same sampling points as Writer.Attach.
func (r *Recorder) Attach(sm *sim.Simulator) {
	sm.AtCycleEnd(func() {
		r.Sample(sm.Cycle() - 1)
	})
}

// Sample records the value of every declared signal at the end of the given
// cycle. The first sample records every signal (the $dumpvars analog);
// subsequent samples record only signals whose value changed.
func (r *Recorder) Sample(cycle uint64) {
	rec := r.rec
	rec.samples++
	if !r.started {
		r.started = true
		r.last = make([]sim.Bits, len(r.sigs))
		for i, s := range r.sigs {
			v := s.Get()
			r.last[i] = v
			rec.stream = append(rec.stream, streamChange{cycle: cycle, sig: int32(i), val: v})
		}
		rec.endCycle = cycle
		return
	}
	for i, s := range r.sigs {
		v := s.Get()
		if v.Equal(r.last[i]) {
			continue
		}
		r.last[i] = v
		rec.stream = append(rec.stream, streamChange{cycle: cycle, sig: int32(i), val: v})
		rec.endCycle = cycle
	}
}

// Recording returns the captured waveform.
func (r *Recorder) Recording() *Recording { return r.rec }

// Cursor streams a Recording's values forward, cycle by cycle, in O(changes)
// total — the parse-once/query-many access path of the streaming analyzer.
type Cursor struct {
	rec  *Recording
	pos  int
	vals []sim.Bits
}

// NewCursor returns a cursor positioned before the first cycle; every value
// reads zero until the first AdvanceTo.
func (rec *Recording) NewCursor() *Cursor {
	return &Cursor{rec: rec, vals: make([]sim.Bits, len(rec.names))}
}

// AdvanceTo applies every change up to and including the given cycle.
// Cycles must be non-decreasing across calls.
func (c *Cursor) AdvanceTo(cycle uint64) {
	st := c.rec.stream
	for c.pos < len(st) && st[c.pos].cycle <= cycle {
		c.vals[st[c.pos].sig] = st[c.pos].val
		c.pos++
	}
}

// Value returns signal i's value at the cursor's current cycle.
func (c *Cursor) Value(i int) sim.Bits { return c.vals[i] }

// Values returns every signal's value at the cursor's current cycle, indexed
// like the recording. The slice is the cursor's own: the next AdvanceTo
// updates it in place.
func (c *Cursor) Values() []sim.Bits { return c.vals }

// ValueAt returns the value of signal i at the end of the given cycle (the
// last change at or before it; zero if none) — random access for report and
// window serving; sequential readers should prefer a Cursor.
func (rec *Recording) ValueAt(i int, cycle uint64) sim.Bits {
	var v sim.Bits
	for _, ch := range rec.stream {
		if ch.cycle > cycle {
			break
		}
		if int(ch.sig) == i {
			v = ch.val
		}
	}
	return v
}

// recordingMagic versions the binary encoding; bump on layout changes.
const recordingMagic = "CRW1"

// valWords returns the number of 64-bit words a width-w value serializes as.
func valWords(w int) int { return (w + 63) / 64 }

// Encode serializes the recording: header (module, signal names and widths),
// then one frame per active cycle as a varint cycle delta plus the changed
// signals' (index, value-words) pairs. Values of small magnitude — the
// common case for control wires and addresses — shrink to a few bytes.
func (rec *Recording) Encode() []byte {
	var e wire.Encoder
	e.Raw(recordingMagic)
	e.Str(rec.module)
	e.Uint(uint64(len(rec.names)))
	for i, name := range rec.names {
		e.Str(name)
		e.Uint(uint64(rec.widths[i]))
	}
	e.Uint(rec.samples)

	// Count frames (runs of equal cycle in the ordered stream).
	frames := 0
	for k := 0; k < len(rec.stream); {
		j := k
		for j < len(rec.stream) && rec.stream[j].cycle == rec.stream[k].cycle {
			j++
		}
		frames++
		k = j
	}
	e.Uint(uint64(frames))
	prev := uint64(0)
	for k := 0; k < len(rec.stream); {
		j := k
		for j < len(rec.stream) && rec.stream[j].cycle == rec.stream[k].cycle {
			j++
		}
		cyc := rec.stream[k].cycle
		e.Uint(cyc - prev)
		prev = cyc
		e.Uint(uint64(j - k))
		for _, ch := range rec.stream[k:j] {
			e.Uint(uint64(ch.sig))
			for w := 0; w < valWords(rec.widths[ch.sig]); w++ {
				e.Uint(ch.val.Word(w))
			}
		}
		k = j
	}
	return e.Bytes()
}

// IsRecording reports whether data begins with the binary recording magic —
// the format sniff the CLI tools use to accept .crw and .vcd interchangeably.
func IsRecording(data []byte) bool {
	return len(data) >= len(recordingMagic) && string(data[:len(recordingMagic)]) == recordingMagic
}

// DecodeRecording parses a recording produced by Encode. Truncation,
// trailing bytes and non-canonical varints are errors.
func DecodeRecording(data []byte) (*Recording, error) {
	if !IsRecording(data) {
		return nil, fmt.Errorf("vcd: not a %s waveform recording", recordingMagic)
	}
	d := wire.NewDecoder(data[len(recordingMagic):])
	fail := func() (*Recording, error) {
		return nil, fmt.Errorf("vcd: waveform recording: %w", d.Err())
	}

	rec := &Recording{module: d.Str(), byName: map[string]int{}}
	nsig := d.Count(2) // name length + width
	for i := 0; i < nsig; i++ {
		name, w := d.Str(), d.Uint()
		if d.Err() != nil {
			return fail()
		}
		if w == 0 || w > sim.MaxBitsWidth {
			return nil, fmt.Errorf("vcd: recording signal %q width %d out of range", name, w)
		}
		rec.byName[name] = len(rec.names)
		rec.names = append(rec.names, name)
		rec.widths = append(rec.widths, int(w))
	}
	rec.samples = d.Uint()
	frames := d.Count(2) // cycle delta + change count
	cyc := uint64(0)
	for f := 0; f < frames; f++ {
		delta, n := d.Uint(), d.Uint()
		if d.Err() != nil {
			return fail()
		}
		if f > 0 && delta == 0 {
			return nil, fmt.Errorf("vcd: recording frames not strictly increasing")
		}
		cyc += delta
		for i := uint64(0); i < n; i++ {
			sig := d.Uint()
			if d.Err() != nil {
				return fail()
			}
			if sig >= uint64(nsig) {
				return nil, fmt.Errorf("vcd: recording change for unknown signal %d", sig)
			}
			var words [sim.BitsWords]uint64
			for w := 0; w < valWords(rec.widths[sig]); w++ {
				words[w] = d.Uint()
			}
			rec.stream = append(rec.stream, streamChange{
				cycle: cyc, sig: int32(sig),
				val: sim.BWords(words[:]...).Mask(rec.widths[sig]),
			})
		}
		rec.endCycle = cyc
	}
	if d.Finish() != nil {
		return fail()
	}
	return rec, nil
}

// File converts the recording into the parsed-dump representation, so every
// consumer of a text VCD — Compare, SignalRates, transaction extraction,
// vcdcat — works on a recording without any text round trip.
func (rec *Recording) File() *File {
	f := &File{
		Timescale: "1ns",
		TopModule: rec.module,
		EndTime:   rec.endCycle * TimePerCycle,
		byName:    map[string]int{},
	}
	for i, name := range rec.names {
		f.byName[name] = i
		f.Vars = append(f.Vars, Var{Name: name, Width: rec.widths[i], Code: idCode(i)})
		f.Changes = append(f.Changes, nil)
	}
	for _, ch := range rec.stream {
		f.Changes[ch.sig] = append(f.Changes[ch.sig], Change{Time: ch.cycle * TimePerCycle, Value: ch.val})
	}
	return f
}

// VCD re-serves the recording as a text VCD stream, byte-identical to what a
// Writer attached to the original run would have produced — the service
// tier's on-demand full-fidelity artifact.
func (rec *Recording) VCD() []byte {
	var buf []byte
	w := &byteWriter{buf: &buf}
	codes := make([]string, len(rec.names))
	for i := range codes {
		codes[i] = idCode(i)
	}
	writeDefs(w, rec.module, rec.names, rec.widths, codes)

	emit := func(ch streamChange) {
		if rec.widths[ch.sig] == 1 {
			if ch.val.Bool() {
				fmt.Fprintf(w, "1%s\n", codes[ch.sig])
			} else {
				fmt.Fprintf(w, "0%s\n", codes[ch.sig])
			}
			return
		}
		fmt.Fprintf(w, "b%s %s\n", ch.val.BinaryString(rec.widths[ch.sig]), codes[ch.sig])
	}
	first := true
	for k := 0; k < len(rec.stream); {
		j := k
		for j < len(rec.stream) && rec.stream[j].cycle == rec.stream[k].cycle {
			j++
		}
		fmt.Fprintf(w, "#%d\n", rec.stream[k].cycle*TimePerCycle)
		if first {
			first = false
			fmt.Fprintf(w, "$dumpvars\n")
			for _, ch := range rec.stream[k:j] {
				emit(ch)
			}
			fmt.Fprintf(w, "$end\n")
		} else {
			for _, ch := range rec.stream[k:j] {
				emit(ch)
			}
		}
		k = j
	}
	return buf
}

// byteWriter adapts an append-only byte slice to io.Writer for writeDefs.
type byteWriter struct{ buf *[]byte }

func (b *byteWriter) Write(p []byte) (int, error) {
	*b.buf = append(*b.buf, p...)
	return len(p), nil
}
