package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/regress"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/testcases"
)

// failingRecord is a record of a failed pair that exercises every optional
// part of the encoding: violations, scoreboard errors, justified and branch
// code points, a kernel profile and a misaligned port.
func failingRecord() *core.PairRecord {
	cov := coverage.NewGroup("g")
	cov.Item("kind", "load", "store").Hit("store")
	code := coverage.NewCodeMap()
	code.Branch("arb.go:12?", true)
	code.Declare(coverage.LinePoint, "dead.go:1")
	code.Justify("dead.go:1")
	run := &core.RunRecord{
		Test: "t", Seed: -3, View: core.BCAView, Cycles: 130, Transactions: 4,
		Latencies:   []uint64{3, 300},
		Violations:  []catg.Violation{{Cycle: 9, Port: "init0", Rule: "stability", Detail: "payload changed"}},
		ScoreErrors: []string{"lost transaction"},
		Coverage:    cov, CodeCov: code,
		Kernel: &sim.KernelStats{Cycles: 130, Deltas: 131, Levelized: true, SettleDepth: []uint64{0, 130}},
	}
	return &core.PairRecord{
		RTL: run, BCA: run,
		Alignment: &stba.Report{Ports: []stba.PortAlignment{{
			Port: "tb.init0", Signals: 12, Cycles: 130, CyclesA: 130, CyclesB: 129, Aligned: 100,
			FirstDivergence: 7, FirstDiverging: []string{"tb.init0.gnt"},
		}}},
		CoverageDiff: "item \"kind\" bin \"load\" hits 1 vs 0",
	}
}

// FuzzDecodePairRecord fuzzes the result cache's trust boundary: a cache
// directory is input from outside the process. Decoding must never panic,
// must never allocate far beyond the input's own size whatever its length
// prefixes claim, and every input it accepts must re-encode to exactly the
// same bytes.
func FuzzDecodePairRecord(f *testing.F) {
	tc, err := testcases.ByName("basic_write_read")
	if err != nil {
		f.Fatal(err)
	}
	// A real unit of the quick matrix (regress -matrix -quick).
	pair, err := core.RunPair(regress.StandardMatrix()[0], tc, 1, bca.Bugs{})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []*core.PairRecord{pair.Record(), failingRecord()} {
		data := encodeRecord(rec)
		if _, err := decodeRecord(data); err != nil {
			f.Fatalf("seed record does not decode: %v", err)
		}
		for _, n := range []int{len(data), len(data) - 1, len(data) / 2, 1} {
			f.Add(data[:n])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeRecord(data)
		runtime.ReadMemStats(&after)
		// The densest encodings (an empty coverage item: two bytes for an
		// item, its map and its name slot) cost a few hundred bytes each.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+512*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if again := encodeRecord(rec); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
