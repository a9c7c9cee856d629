package vcd

import (
	"bytes"
	"reflect"
	"testing"

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
		if got := rec.ValueAt(ci, cyc).Uint64(); got != cyc+1 {
			t.Errorf("ValueAt(cnt, %d) = %d, want %d", cyc, got, cyc+1)
		}
	}
}
