package vcd

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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
// a new value at the end of clock cycle cycle. A value that fits in 64 bits
// is lo itself and wide is -1; a wider value is Recording.wide[wide].
// Keeping the common case out of a full sim.Bits makes a change 24 bytes
// instead of 48. The stream is ordered by (cycle, sig), exactly the order
// Writer would have emitted the change in.
type streamChange struct {
	cycle uint64
	lo    uint64
	sig   int32
	wide  int32
}

// Recording is a captured waveform: per-signal metadata plus the ordered
// change stream. The zero value is an empty recording of no signals.
type Recording struct {
	module string
	names  []string
	widths []int
	stream changeStream
	wide   []sim.Bits // values of changes to signals wider than 64 bits

	// endCycle is the last cycle any change was recorded (the binary analog
	// of a VCD file's EndTime); samples counts the cycles sampled.
	endCycle uint64
	samples  uint64

	byName map[string]int
}

// NumSignals returns the number of recorded signals.
func (rec *Recording) NumSignals() int { return len(rec.names) }

// SignalName returns the hierarchical name of signal i (declare order).
func (rec *Recording) SignalName(i int) string { return rec.names[i] }

// SignalIndex returns the declare index of the named signal, or -1.
func (rec *Recording) SignalIndex(name string) int {
	if i, ok := rec.byName[name]; ok {
		return i
	}
	return -1
}

// add appends a change of signal sig to v at the end of the given cycle.
func (rec *Recording) add(cycle uint64, sig int32, v sim.Bits) {
	ch := streamChange{cycle: cycle, lo: v.Uint64(), sig: sig, wide: -1}
	if v != sim.B64(ch.lo) {
		ch.wide = int32(len(rec.wide))
		rec.wide = append(rec.wide, v)
	}
	rec.stream.push(ch)
}

// value returns the value a change set.
func (rec *Recording) value(ch streamChange) sim.Bits {
	if ch.wide < 0 {
		return sim.B64(ch.lo)
	}
	return rec.wide[ch.wide]
}

// Changes returns the total number of recorded value changes.
func (rec *Recording) Changes() int { return rec.stream.n }

// chunkLen is the number of changes in one chunk of a changeStream.
const chunkLen = 512

// changeStream is the ordered change list of a recording, kept in
// fixed-size chunks: a recording grows without copying the changes it
// already holds, as a growing slice would on every reallocation.
type changeStream struct {
	chunks [][]streamChange
	n      int
}

func (st *changeStream) push(ch streamChange) {
	if st.n%chunkLen == 0 {
		st.chunks = append(st.chunks, make([]streamChange, 0, chunkLen))
	}
	last := &st.chunks[len(st.chunks)-1]
	*last = append(*last, ch)
	st.n++
}

func (st *changeStream) at(k int) streamChange { return st.chunks[k/chunkLen][k%chunkLen] }

// Samples returns the number of cycle samples taken.
func (rec *Recording) Samples() uint64 { return rec.samples }

// Cycles returns the number of clock cycles the recording covers, defined —
// exactly like File.Cycles on a parsed dump — by the last recorded activity,
// so alignment windows computed from a recording and from its text VCD
// rendering agree.
func (rec *Recording) Cycles() uint64 { return rec.endCycle + 1 }

// Recorder captures a compact Recording from live simulation signals. It
// mirrors Writer's protocol: Declare every signal, Attach, then read
// Recording() once the run completes. It records from the kernel's change
// journal, so a cycle costs in proportion to the signals that changed. A
// bench with no signal kernel declares its signals with DeclareValue and
// feeds their values with Values instead, into the same layout.
type Recorder struct {
	rec     *Recording
	sigs    []*sim.Signal
	watch   *sim.Journal
	last    []sim.Bits
	started bool
}

// NewRecorder returns an empty Recorder; module names the top scope used
// when the recording is re-served as text VCD.
func NewRecorder(module string) *Recorder {
	return &Recorder{rec: &Recording{module: module, byName: map[string]int{}}}
}

// Declare adds a signal to the capture set. All declarations must happen
// before Attach.
func (r *Recorder) Declare(sig *sim.Signal) {
	if r.watch != nil {
		panic("vcd: Recorder.Declare after Attach")
	}
	r.DeclareValue(sig.Name(), sig.Width())
	r.sigs = append(r.sigs, sig)
}

// DeclareValue adds a signal by its hierarchical name and width, for a
// recorder fed by Values. All declarations must happen before the first
// sample.
func (r *Recorder) DeclareValue(name string, width int) {
	r.rec.byName[name] = len(r.rec.names)
	r.rec.names = append(r.rec.names, name)
	r.rec.widths = append(r.rec.widths, width)
}

// DeclareAll adds every signal of a simulator to the capture set.
func (r *Recorder) DeclareAll(sm *sim.Simulator) {
	for _, s := range sm.Signals() {
		r.Declare(s)
	}
}

// Attach opens a change journal over the declared signals on sm, which owns
// them, and registers an end-of-cycle hook that samples them each cycle —
// the same sampling points as Writer.Attach.
func (r *Recorder) Attach(sm *sim.Simulator) {
	r.watch = sm.Watch(r.sigs)
	sm.AtCycleEnd(func() {
		r.sample(sm.Cycle() - 1)
	})
}

// first records every declared signal's value at the end of the given
// cycle: the first sample, the $dumpvars analog.
func (r *Recorder) first(cycle uint64, vals []sim.Bits) {
	r.started = true
	r.last = vals
	for i, v := range vals {
		r.rec.add(cycle, int32(i), v)
	}
	r.rec.endCycle = cycle
}

// sample records the declared signals' values at the end of the given
// cycle. The first sample records every signal; later ones re-read the
// signals the journal noted, in declare order — the order Writer emits and
// DecodeRecording requires — and record those whose value changed.
func (r *Recorder) sample(cycle uint64) {
	rec := r.rec
	rec.samples++
	if !r.started {
		vals := make([]sim.Bits, len(r.sigs))
		for i, s := range r.sigs {
			vals[i] = s.Get()
		}
		r.first(cycle, vals)
		r.watch.Drain()
		return
	}
	noted := r.watch.Drain()
	slices.Sort(noted)
	for _, i := range noted {
		r.change(cycle, i, r.sigs[i].Get())
	}
}

// change records signal i's value at the end of the given cycle if it
// differs from the last one recorded.
func (r *Recorder) change(cycle uint64, i int32, v sim.Bits) {
	if v.Equal(r.last[i]) {
		return
	}
	r.last[i] = v
	r.rec.add(cycle, i, v)
	r.rec.endCycle = cycle
}

// Values records the values of the signals declared with DeclareValue,
// indexed in declare order, at the end of the given cycle: what Attach's
// hook samples from a simulation, for a bench with no signal kernel. The
// first call records every value, later ones those that changed. Cycles
// must increase across calls.
func (r *Recorder) Values(cycle uint64, vals []sim.Bits) {
	r.rec.samples++
	if !r.started {
		r.first(cycle, slices.Clone(vals))
		return
	}
	for i, v := range vals {
		r.change(cycle, int32(i), v)
	}
}

// Recording returns the captured waveform.
func (r *Recorder) Recording() *Recording { return r.rec }

// Cursor streams a Recording's values forward, cycle by cycle, in O(changes)
// total — the parse-once/query-many access path of the streaming analyzer.
type Cursor struct {
	rec     *Recording
	pos     int
	vals    []sim.Bits
	changed []int32 // signals the last AdvanceTo set
}

// NewCursor returns a cursor positioned before the first cycle; every value
// reads zero until the first AdvanceTo.
func (rec *Recording) NewCursor() *Cursor {
	return &Cursor{rec: rec, vals: make([]sim.Bits, len(rec.names))}
}

// AdvanceTo applies every change up to and including the given cycle and
// returns the indices of the signals it set, in stream order: a signal that
// changed in several of the cycles passed appears once per change. Cycles
// must be non-decreasing across calls. The slice is the cursor's own and
// stays valid until the next AdvanceTo.
func (c *Cursor) AdvanceTo(cycle uint64) []int32 {
	pos, changed := c.pos, c.changed[:0]
	st := &c.rec.stream
	for pos < st.n {
		chunk := st.chunks[pos/chunkLen][pos%chunkLen:]
		k := 0
		for ; k < len(chunk) && chunk[k].cycle <= cycle; k++ {
			// Storing each branch's value directly, not value()'s result,
			// avoids a store-forwarding stall on the temporary.
			ch := &chunk[k]
			if ch.wide < 0 {
				c.vals[ch.sig] = sim.B64(ch.lo)
			} else {
				c.vals[ch.sig] = c.rec.wide[ch.wide]
			}
			changed = append(changed, ch.sig)
		}
		pos += k
		if k < len(chunk) {
			break
		}
	}
	c.pos, c.changed = pos, changed
	return changed
}

// Next returns the cycle of the first change AdvanceTo has not applied yet,
// and false once every change is applied: until that cycle, no value the
// cursor reads changes.
func (c *Cursor) Next() (uint64, bool) {
	if c.pos == c.rec.stream.n {
		return 0, false
	}
	return c.rec.stream.at(c.pos).cycle, true
}

// Value returns signal i's value at the cursor's current cycle.
func (c *Cursor) Value(i int) sim.Bits { return c.vals[i] }

// Values returns every signal's value at the cursor's current cycle, indexed
// like the recording. The slice is the cursor's own: the next AdvanceTo
// updates it in place.
func (c *Cursor) Values() []sim.Bits { return c.vals }

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
	st := &rec.stream
	frames := 0
	for k := 0; k < st.n; {
		j := k
		for j < st.n && st.at(j).cycle == st.at(k).cycle {
			j++
		}
		frames++
		k = j
	}
	e.Uint(uint64(frames))
	prev := uint64(0)
	for k := 0; k < st.n; {
		j := k
		for j < st.n && st.at(j).cycle == st.at(k).cycle {
			j++
		}
		cyc := st.at(k).cycle
		e.Uint(cyc - prev)
		prev = cyc
		e.Uint(uint64(j - k))
		for i := k; i < j; i++ {
			ch := st.at(i)
			e.Uint(uint64(ch.sig))
			v := rec.value(ch)
			for w := 0; w < valWords(rec.widths[ch.sig]); w++ {
				e.Uint(v.Word(w))
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

// maxCycle is the last cycle whose VCD timestamp fits in 64 bits.
const maxCycle = math.MaxUint64 / TimePerCycle

// DecodeRecording parses a recording produced by Encode. It accepts only
// what Encode writes for a recording Parse can read back from its VCD text:
// truncation, trailing bytes, non-canonical varints, a module or signal name
// that is not a VCD identifier, a duplicate signal name, an empty frame,
// changes out of signal order, a value with bits above its signal's width
// and a cycle past the VCD time range are errors.
func DecodeRecording(data []byte) (*Recording, error) {
	if !IsRecording(data) {
		return nil, fmt.Errorf("vcd: not a %s waveform recording", recordingMagic)
	}
	d := wire.NewDecoder(data[len(recordingMagic):])
	fail := func() (*Recording, error) {
		return nil, fmt.Errorf("vcd: waveform recording: %w", d.Err())
	}

	rec := &Recording{module: d.Str(), byName: map[string]int{}}
	if d.Err() == nil && !vcdIdent(rec.module) {
		return nil, fmt.Errorf("vcd: recording module %q is not a VCD identifier", rec.module)
	}
	nsig := d.Count(2) // name length + width
	for i := 0; i < nsig; i++ {
		name, w := d.Str(), d.Uint()
		if d.Err() != nil {
			return fail()
		}
		if w == 0 || w > sim.MaxBitsWidth {
			return nil, fmt.Errorf("vcd: recording signal %q width %d out of range", name, w)
		}
		if !vcdName(name) {
			return nil, fmt.Errorf("vcd: recording signal name %q is not a dotted VCD identifier", name)
		}
		if _, dup := rec.byName[name]; dup {
			return nil, fmt.Errorf("vcd: recording declares signal %q twice", name)
		}
		rec.byName[name] = len(rec.names)
		rec.names = append(rec.names, name)
		rec.widths = append(rec.widths, int(w))
	}
	rec.samples = d.Uint()
	frames := d.Count(2) // cycle delta + change count
	cyc := uint64(0)
	for f := 0; f < frames; f++ {
		delta := d.Uint()
		n := d.Count(2) // signal index + at least one value word
		if d.Err() != nil {
			return fail()
		}
		if f > 0 && delta == 0 {
			return nil, fmt.Errorf("vcd: recording frames not strictly increasing")
		}
		if delta > maxCycle-cyc {
			return nil, fmt.Errorf("vcd: recording cycle past %d", uint64(maxCycle))
		}
		if n == 0 {
			return nil, fmt.Errorf("vcd: recording frame at cycle %d has no changes", cyc+delta)
		}
		cyc += delta
		prev := -1
		for i := 0; i < n; i++ {
			sig := d.Uint()
			if d.Err() != nil {
				return fail()
			}
			if sig >= uint64(nsig) {
				return nil, fmt.Errorf("vcd: recording change for unknown signal %d", sig)
			}
			if int(sig) <= prev {
				return nil, fmt.Errorf("vcd: recording changes at cycle %d not in signal order", cyc)
			}
			prev = int(sig)
			var words [sim.BitsWords]uint64
			for w := 0; w < valWords(rec.widths[sig]); w++ {
				words[w] = d.Uint()
			}
			val := sim.BWords(words[:]...)
			if !val.Equal(val.Mask(rec.widths[sig])) {
				return nil, fmt.Errorf("vcd: recording value of %q at cycle %d wider than %d bits",
					rec.names[sig], cyc, rec.widths[sig])
			}
			rec.add(cyc, int32(sig), val)
		}
		rec.endCycle = cyc
	}
	if d.Finish() != nil {
		return fail()
	}
	return rec, nil
}

// vcdName reports whether a signal name survives a VCD declaration: dotted
// scope components, each a VCD identifier.
func vcdName(name string) bool {
	for _, c := range strings.Split(name, ".") {
		if !vcdIdent(c) {
			return false
		}
	}
	return true
}

// vcdIdent reports whether s is a non-empty run of printable, non-space
// ASCII other than '.' that is not the $end keyword.
func vcdIdent(s string) bool {
	if s == "" || s == "$end" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c > '~' || c == '.' {
			return false
		}
	}
	return true
}

// File converts the recording into the parsed-dump representation, so every
// consumer of a text VCD — Compare, SignalRates, transaction extraction,
// vcdcat — works on a recording without any text round trip. File.Recording
// is its inverse.
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
	for k := 0; k < rec.stream.n; k++ {
		ch := rec.stream.at(k)
		f.Changes[ch.sig] = append(f.Changes[ch.sig], Change{Time: ch.cycle * TimePerCycle, Value: rec.value(ch)})
	}
	return f
}

// Recording converts the parsed dump into the recording it samples as, the
// inverse of Recording.File: each change takes effect at the first cycle
// boundary at or after its time, only the last change of a variable per
// cycle is kept, changes past the dump's last cycle are dropped, and the
// rest are ordered by (cycle, variable). The recording covers as many
// cycles as the dump, so a Cursor reads at each cycle what ValueAt reads at
// that cycle's time.
func (f *File) Recording() *Recording {
	last := f.EndTime / TimePerCycle
	rec := &Recording{module: f.TopModule, endCycle: last, samples: last + 1, byName: map[string]int{}}
	n := 0
	for _, chs := range f.Changes {
		n += len(chs)
	}
	// change k of variable sig takes effect at cycle.
	type change struct {
		cycle  uint64
		sig, k int32
	}
	stream := make([]change, 0, n)
	for i, v := range f.Vars {
		rec.byName[v.Name] = i
		rec.names = append(rec.names, v.Name)
		rec.widths = append(rec.widths, v.Width)
		from := len(stream)
		for k, ch := range f.Changes[i] {
			cyc := ch.Time / TimePerCycle
			if ch.Time%TimePerCycle != 0 {
				cyc++
			}
			if cyc > last {
				break
			}
			if j := len(stream) - 1; j >= from && stream[j].cycle == cyc {
				stream[j].k = int32(k)
				continue
			}
			stream = append(stream, change{cyc, int32(i), int32(k)})
		}
	}
	slices.SortFunc(stream, func(a, b change) int {
		if a.cycle != b.cycle {
			return cmp.Compare(a.cycle, b.cycle)
		}
		return cmp.Compare(a.sig, b.sig)
	})
	for _, ch := range stream {
		rec.add(ch.cycle, ch.sig, f.Changes[ch.sig][ch.k].Value)
	}
	return rec
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
		val := rec.value(ch)
		if rec.widths[ch.sig] == 1 {
			if val.Bool() {
				fmt.Fprintf(w, "1%s\n", codes[ch.sig])
			} else {
				fmt.Fprintf(w, "0%s\n", codes[ch.sig])
			}
			return
		}
		fmt.Fprintf(w, "b%s %s\n", val.BinaryString(rec.widths[ch.sig]), codes[ch.sig])
	}
	first := true
	st := &rec.stream
	for k := 0; k < st.n; {
		j := k
		for j < st.n && st.at(j).cycle == st.at(k).cycle {
			j++
		}
		fmt.Fprintf(w, "#%d\n", st.at(k).cycle*TimePerCycle)
		if first {
			fmt.Fprintf(w, "$dumpvars\n")
		}
		for i := k; i < j; i++ {
			emit(st.at(i))
		}
		if first {
			first = false
			fmt.Fprintf(w, "$end\n")
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
