package vcd_test

import (
	"bytes"
	"runtime"
	"testing"

	"crve/internal/core"
	"crve/internal/regress"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

// FuzzDecodeRecording fuzzes the waveform recording's trust boundary: a .crw
// file is input from outside the process, and the recording is the only
// waveform the engine writes. Decoding must never panic, must never allocate
// far beyond the input's own size whatever its length prefixes claim, every
// input it accepts must re-encode to exactly the same bytes, and the text VCD
// it re-serves must parse back to the recording's own File, which converts
// back to a recording that re-serves the same text over the same cycles.
func FuzzDecodeRecording(f *testing.F) {
	tc, err := testcases.ByName("basic_write_read")
	if err != nil {
		f.Fatal(err)
	}
	// One unit per configuration of the quick matrix (regress -matrix
	// -quick): its port recordings differ in port count, type and width.
	for _, cfg := range regress.StandardMatrix()[:6] {
		res, err := core.RunTest(cfg, core.RTLView, tc, 1, core.RunOptions{RecordWave: true})
		if err != nil {
			f.Fatal(err)
		}
		data := res.Wave.Encode()
		if _, err := vcd.DecodeRecording(data); err != nil {
			f.Fatalf("seed recording does not decode: %v", err)
		}
		for _, n := range []int{len(data), len(data) - 1, len(data) / 2, 4} {
			f.Add(data[:n])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := vcd.DecodeRecording(data)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+512*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if again := rec.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, again)
		}
		parsed, err := vcd.Parse(bytes.NewReader(rec.VCD()))
		if err != nil {
			t.Fatalf("re-served VCD does not parse: %v", err)
		}
		if d := fileDiff(parsed, rec.File()); d != "" {
			t.Fatalf("parsed VCD differs from File(): %s", d)
		}
		back := rec.File().Recording()
		if !bytes.Equal(back.VCD(), rec.VCD()) || back.Cycles() != rec.Cycles() {
			t.Fatalf("File().Recording() is not the recording back: %d cycles, want %d", back.Cycles(), rec.Cycles())
		}
	})
}

// fileDiff compares two parsed dumps by variable name (a parsed dump lists
// variables in scope-tree order, File() in declaration order) and describes
// the first difference, or returns "".
func fileDiff(got, want *vcd.File) string {
	if got.TopModule != want.TopModule || got.Timescale != want.Timescale || got.EndTime != want.EndTime {
		return "header (module, timescale, end time) differs"
	}
	if len(got.Vars) != len(want.Vars) {
		return "variable count differs"
	}
	for wi, v := range want.Vars {
		gi := got.VarIndex(v.Name)
		if gi < 0 {
			return "missing variable " + v.Name
		}
		if got.Vars[gi] != v {
			return "declaration of " + v.Name + " differs"
		}
		gc, wc := got.Changes[gi], want.Changes[wi]
		if len(gc) != len(wc) {
			return "change count of " + v.Name + " differs"
		}
		for k := range wc {
			if gc[k].Time != wc[k].Time || !gc[k].Value.Equal(wc[k].Value) {
				return "a change of " + v.Name + " differs"
			}
		}
	}
	return ""
}
