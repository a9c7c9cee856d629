package vcd

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"crve/internal/sim"
	"crve/internal/wire"
)

// runBoth attaches a Writer and a Recorder to the same simulator run and
// returns the text VCD plus the captured Recording.
func runBoth(t *testing.T, cycles int) ([]byte, *Recording) {
	t.Helper()
	sm, tog, cnt := buildCounterSim()
	var buf bytes.Buffer
	wr := NewWriter(&buf, "bench")
	wr.Declare(tog)
	wr.Declare(cnt)
	wr.Attach(sm)
	r := NewRecorder("bench")
	r.Declare(tog)
	r.Declare(cnt)
	r.Attach(sm)
	if err := sm.Run(cycles); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r.Recording()
}

func TestRecordingVCDMatchesWriter(t *testing.T) {
	text, rec := runBoth(t, 10)
	if got := rec.VCD(); !bytes.Equal(got, text) {
		t.Errorf("Recording.VCD differs from Writer output:\n--- writer ---\n%s\n--- recording ---\n%s", text, got)
	}
	if rec.Cycles() != 10 {
		t.Errorf("Cycles() = %d, want 10", rec.Cycles())
	}
	if rec.Samples() != 10 {
		t.Errorf("Samples() = %d, want 10", rec.Samples())
	}
}

func TestRecordingFileMatchesParse(t *testing.T) {
	text, rec := runBoth(t, 10)
	want, err := Parse(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got := rec.File()
	if got.TopModule != want.TopModule || got.EndTime != want.EndTime {
		t.Errorf("File() header = (%q, %d), want (%q, %d)",
			got.TopModule, got.EndTime, want.TopModule, want.EndTime)
	}
	if got.Cycles() != want.Cycles() {
		t.Errorf("File().Cycles() = %d, want %d", got.Cycles(), want.Cycles())
	}
	// Vars in a parsed dump are in sorted (scope-tree) order while File()
	// keeps declare order; compare by name.
	if len(got.Vars) != len(want.Vars) {
		t.Fatalf("File() has %d vars, parse has %d", len(got.Vars), len(want.Vars))
	}
	for _, v := range want.Vars {
		gi := got.VarIndex(v.Name)
		if gi < 0 {
			t.Fatalf("File() missing var %q", v.Name)
		}
		if got.Vars[gi].Width != v.Width {
			t.Errorf("var %q width %d, want %d", v.Name, got.Vars[gi].Width, v.Width)
		}
		wi := want.VarIndex(v.Name)
		for cyc := uint64(0); cyc < want.Cycles(); cyc++ {
			tm := cyc * TimePerCycle
			if g, w := got.ValueAt(gi, tm), want.ValueAt(wi, tm); !g.Equal(w) {
				t.Errorf("var %q cycle %d = %s, want %s",
					v.Name, cyc, g.BinaryString(v.Width), w.BinaryString(v.Width))
			}
		}
	}
}

func TestRecordingEncodeDecodeRoundTrip(t *testing.T) {
	text, rec := runBoth(t, 25)
	enc := rec.Encode()
	if len(enc) >= len(text) {
		t.Errorf("binary recording (%d bytes) not smaller than text VCD (%d bytes)", len(enc), len(text))
	}
	dec, err := DecodeRecording(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, rec) {
		t.Errorf("decoded recording differs:\n got %+v\nwant %+v", dec, rec)
	}
	if got := dec.VCD(); !bytes.Equal(got, text) {
		t.Errorf("decoded Recording.VCD differs from Writer output")
	}
}

// rawRecording encodes a one-signal recording field by field, so a test can
// write frames Encode never would. Each frame is a cycle delta and its
// (signal, value) changes.
func rawRecording(names []string, width int, frames ...[]uint64) []byte {
	var e wire.Encoder
	e.Raw(recordingMagic)
	e.Str("bench")
	e.Uint(uint64(len(names)))
	for _, n := range names {
		e.Str(n)
		e.Uint(uint64(width))
	}
	e.Uint(uint64(len(frames))) // samples
	e.Uint(uint64(len(frames)))
	for _, f := range frames {
		e.Uint(f[0])
		e.Uint(uint64(len(f[1:]) / 2))
		for _, v := range f[1:] {
			e.Uint(v)
		}
	}
	return e.Bytes()
}

func TestDecodeRecordingRejectsCorrupt(t *testing.T) {
	_, rec := runBoth(t, 5)
	enc := rec.Encode()
	if _, err := DecodeRecording(rawRecording([]string{"top.a"}, 4, []uint64{0, 0, 9})); err != nil {
		t.Fatalf("well-formed raw recording rejected: %v", err)
	}
	for _, row := range []struct {
		name string
		data []byte
	}{
		{"bad magic", []byte("XXXX")},
		{"truncated", enc[:len(enc)/2]},
		{"trailing byte", append(enc[:len(enc):len(enc)], 0)},
		// 0x1f needs five bits: masking it would change the bytes.
		{"value above width", rawRecording([]string{"top.a"}, 4, []uint64{0, 0, 0x1f})},
		// Encode drops a frame without changes.
		{"empty frame", rawRecording([]string{"top.a"}, 4, []uint64{0, 0, 9}, []uint64{1})},
		// The text VCD could declare only one of the two.
		{"duplicate name", rawRecording([]string{"top.a", "top.a"}, 4, []uint64{0, 0, 9, 1, 3})},
	} {
		if _, err := DecodeRecording(row.data); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
	}
}

// valueAt returns the value of signal i at the end of the given cycle (the
// last change at or before it; zero if none), by a scan of the whole change
// stream: the random-access reference for the cursor.
func valueAt(rec *Recording, i int, cycle uint64) sim.Bits {
	var v sim.Bits
	for k := 0; k < rec.stream.n; k++ {
		ch := rec.stream.at(k)
		if ch.cycle > cycle {
			break
		}
		if int(ch.sig) == i {
			v = rec.value(ch)
		}
	}
	return v
}

func TestCursorStreamsValues(t *testing.T) {
	_, rec := runBoth(t, 10)
	ci := rec.SignalIndex("top.cnt")
	ti := rec.SignalIndex("top.tog")
	if ci < 0 || ti < 0 {
		t.Fatalf("missing signals: %v", rec.names)
	}
	cur := rec.NewCursor()
	for cyc := uint64(0); cyc < rec.Cycles(); cyc++ {
		cur.AdvanceTo(cyc)
		if got := cur.Value(ci).Uint64(); got != cyc+1 {
			t.Errorf("cnt at cycle %d = %d, want %d", cyc, got, cyc+1)
		}
		if got, want := cur.Value(ti).Bool(), (cyc+1)%2 == 1; got != want {
			t.Errorf("tog at cycle %d = %v, want %v", cyc, got, want)
		}
		if got := valueAt(rec, ci, cyc).Uint64(); got != cyc+1 {
			t.Errorf("ValueAt(cnt, %d) = %d, want %d", cyc, got, cyc+1)
		}
	}
}

// TestFileRecordingSamplesTheDump converts parsed dumps to recordings: a
// recorder's own recording comes back whole, and a hand-written dump's
// changes take effect at the first cycle boundary at or after their time,
// the last one per cycle wins, and a change past the dump's last cycle is
// dropped — so a cursor reads at each cycle what ValueAt reads at its time,
// and Next names the cycles at which the values change.
func TestFileRecordingSamplesTheDump(t *testing.T) {
	_, rec := runBoth(t, 10)
	if back := rec.File().Recording(); !reflect.DeepEqual(back, rec) {
		t.Errorf("File().Recording() differs from the recording:\n got %+v\nwant %+v", back, rec)
	}

	const defs = "$scope module tb $end\n$var wire 1 ! a $end\n$var wire 8 \" b $end\n$enddefinitions $end\n"
	f, err := Parse(strings.NewReader(defs + "#0\n0!\nb1 \"\n#12\n1!\nb10 \"\n#18\nb11 \"\n#20\n0!\n#25\n1!\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := f.Recording()
	if got.Cycles() != f.Cycles() {
		t.Fatalf("Cycles() = %d, the dump's %d", got.Cycles(), f.Cycles())
	}
	cur := got.NewCursor()
	var steps []uint64
	for cyc := uint64(0); cyc < got.Cycles(); cyc++ {
		cur.AdvanceTo(cyc)
		for i := range f.Vars {
			if g, w := cur.Value(i), f.ValueAt(i, cyc*TimePerCycle); !g.Equal(w) {
				t.Errorf("%s at cycle %d = %v, ValueAt %v", f.Vars[i].Name, cyc, g, w)
			}
		}
		if next, ok := cur.Next(); ok {
			steps = append(steps, next)
		}
	}
	// #12 and #18 land on cycle 2, #20 on cycle 2 too; #25 (cycle 3) is past
	// the dump's last cycle, 2.
	if want := []uint64{2, 2}; !reflect.DeepEqual(steps, want) || got.Changes() != 4 {
		t.Errorf("Next() over cycles 0..2 = %v, want %v; %d changes, want 4", steps, want, got.Changes())
	}
}

// TestRecorderIgnoresSettledGlitch: g pulses and settles back to 0 inside
// every cycle (a cyclic unit: g = trig != ack, ack = trig, trig toggling),
// so the change journal notes it every cycle; the recorder re-reads it and
// records nothing past the first sample, exactly as Writer emits nothing.
func TestRecorderIgnoresSettledGlitch(t *testing.T) {
	sm := sim.New()
	trig, ack := sm.Bool("trig"), sm.Bool("ack")
	g := sm.Bool("top.g")
	sm.Seq("trig", func() { trig.SetBool(!trig.Bool()) })
	sm.CombOut("g", func() { g.SetBool(trig.Bool() != ack.Bool()) }, []*sim.Signal{g}, trig, ack)
	sm.CombOut("ack", func() { ack.SetBool(trig.Bool()) }, []*sim.Signal{ack}, trig, g)
	var buf bytes.Buffer
	wr := NewWriter(&buf, "bench")
	wr.Declare(g)
	wr.Attach(sm)
	r := NewRecorder("bench")
	r.Declare(g)
	r.Attach(sm)
	if err := sm.Run(6); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := r.Recording()
	if rec.Changes() != 1 || rec.Cycles() != 1 {
		t.Errorf("recorded %d changes over %d cycles, want the first sample only", rec.Changes(), rec.Cycles())
	}
	if !bytes.Equal(rec.VCD(), buf.Bytes()) {
		t.Errorf("Recording.VCD differs from Writer output:\n%s\nvs\n%s", rec.VCD(), buf.Bytes())
	}
}
