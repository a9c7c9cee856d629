package core

import (
	"encoding/json"

	"crve/internal/catg"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/wire"
)

// RunRecord is the part of a RunResult the result cache stores: everything
// the regression aggregates and reports need, minus the waveform recording
// (a regeneration artifact, not a result — caching it would dwarf the
// results it supports), the streaming alignment (a pair keeps its own) and
// the configuration (the cache key already pins it, so the loader
// re-attaches the one it looked up with).
type RunRecord struct {
	Test         string
	Seed         int64
	View         View
	Cycles       uint64
	Drained      bool
	Transactions int
	// Latencies holds one total latency (cycles) per completed initiator-side
	// transaction, for performance analyses.
	Latencies   []uint64
	Violations  []catg.Violation
	ScoreErrors []string
	Coverage    *coverage.Group
	CodeCov     *coverage.CodeMap
	// Kernel is the simulation-kernel profile, collected when
	// RunOptions.KernelStats is set.
	Kernel *sim.KernelStats
}

// Record snapshots the run for persistence.
func (r *RunResult) Record() *RunRecord {
	rec := r.RunRecord
	return &rec
}

// Result rebuilds the RunResult for configuration cfg. The Wave field stays
// nil: report writers skip waveform artifacts for cache-served runs.
func (rec *RunRecord) Result(cfg nodespec.Config) *RunResult {
	return &RunResult{RunRecord: *rec, DUTIn: cfg}
}

// PairRecord is the serializable form of a PairResult — the unit the
// incremental regression cache stores per (config, test, seed, bugs, code
// version) key.
type PairRecord struct {
	RTL           *RunRecord
	BCA           *RunRecord
	Alignment     *stba.Report
	CoverageEqual bool
	CoverageDiff  string
}

// Record snapshots the pair for persistence.
func (p *PairResult) Record() *PairRecord {
	return &PairRecord{
		RTL: p.RTL.Record(), BCA: p.BCA.Record(),
		Alignment:     p.Alignment,
		CoverageEqual: p.CoverageEqual, CoverageDiff: p.CoverageDiff,
	}
}

// Result rebuilds the PairResult for configuration cfg.
func (rec *PairRecord) Result(cfg nodespec.Config) *PairResult {
	return &PairResult{
		RTL: rec.RTL.Result(cfg), BCA: rec.BCA.Result(cfg),
		Alignment:     rec.Alignment,
		CoverageEqual: rec.CoverageEqual, CoverageDiff: rec.CoverageDiff,
	}
}

// The binary form of the records, stored by the regression result cache.
// Fields follow in declaration order; every pointer is preceded by a
// presence byte and every slice by its length. An empty slice decodes as nil.
// The kernel profile — present only when a run asked for it — stays a
// length-prefixed JSON blob.

// Encode appends the record's binary form to e.
func (rec *PairRecord) Encode(e *wire.Encoder) {
	encodeOpt(e, rec.RTL, (*RunRecord).encode)
	encodeOpt(e, rec.BCA, (*RunRecord).encode)
	encodeOpt(e, rec.Alignment, encodeReport)
	e.Bool(rec.CoverageEqual)
	e.Str(rec.CoverageDiff)
}

// DecodePairRecord reads a record written by Encode. The result is
// meaningful only when d.Err() is nil; callers that own the whole input
// check d.Finish() so trailing bytes fail too.
func DecodePairRecord(d *wire.Decoder) *PairRecord {
	return &PairRecord{
		RTL:           decodeOpt(d, decodeRunRecord),
		BCA:           decodeOpt(d, decodeRunRecord),
		Alignment:     decodeOpt(d, decodeReport),
		CoverageEqual: d.Bool(),
		CoverageDiff:  d.Str(),
	}
}

func (rec *RunRecord) encode(e *wire.Encoder) {
	e.Str(rec.Test)
	e.Int(rec.Seed)
	e.Uint(uint64(rec.View))
	e.Uint(rec.Cycles)
	e.Bool(rec.Drained)
	e.Int(int64(rec.Transactions))
	e.Uint(uint64(len(rec.Latencies)))
	for _, l := range rec.Latencies {
		e.Uint(l)
	}
	e.Uint(uint64(len(rec.Violations)))
	for _, v := range rec.Violations {
		e.Uint(v.Cycle)
		e.Str(v.Port)
		e.Str(v.Rule)
		e.Str(v.Detail)
	}
	e.Uint(uint64(len(rec.ScoreErrors)))
	for _, s := range rec.ScoreErrors {
		e.Str(s)
	}
	encodeOpt(e, rec.Coverage, (*coverage.Group).Encode)
	encodeOpt(e, rec.CodeCov, (*coverage.CodeMap).Encode)
	encodeOpt(e, rec.Kernel, encodeKernel)
}

func decodeRunRecord(d *wire.Decoder) *RunRecord {
	rec := &RunRecord{Test: d.Str(), Seed: d.Int()}
	if v := d.Uint(); v <= uint64(BCAView) {
		rec.View = View(v)
	} else {
		d.Fail("core: unknown view %d", v)
	}
	rec.Cycles, rec.Drained, rec.Transactions = d.Uint(), d.Bool(), int(d.Int())
	if n := d.Count(1); n > 0 {
		rec.Latencies = make([]uint64, n)
		for i := range rec.Latencies {
			rec.Latencies[i] = d.Uint()
		}
	}
	if n := d.Count(4); n > 0 { // cycle + three string lengths
		rec.Violations = make([]catg.Violation, n)
		for i := range rec.Violations {
			rec.Violations[i] = catg.Violation{Cycle: d.Uint(), Port: d.Str(), Rule: d.Str(), Detail: d.Str()}
		}
	}
	rec.ScoreErrors = decodeStrings(d)
	rec.Coverage = decodeOpt(d, coverage.DecodeGroup)
	rec.CodeCov = decodeOpt(d, coverage.DecodeCodeMap)
	rec.Kernel = decodeOpt(d, decodeKernel)
	return rec
}

func encodeReport(r *stba.Report, e *wire.Encoder) {
	e.Uint(uint64(len(r.Ports)))
	for _, p := range r.Ports {
		e.Str(p.Port)
		e.Int(int64(p.Signals))
		e.Uint(p.Cycles)
		e.Uint(p.CyclesA)
		e.Uint(p.CyclesB)
		e.Uint(p.Aligned)
		e.Int(p.FirstDivergence)
		e.Uint(uint64(len(p.FirstDiverging)))
		for _, s := range p.FirstDiverging {
			e.Str(s)
		}
	}
}

func decodeReport(d *wire.Decoder) *stba.Report {
	r := &stba.Report{}
	if n := d.Count(8); n > 0 { // one byte per scalar field and the name list
		r.Ports = make([]stba.PortAlignment, n)
		for i := range r.Ports {
			r.Ports[i] = stba.PortAlignment{
				Port: d.Str(), Signals: int(d.Int()),
				Cycles: d.Uint(), CyclesA: d.Uint(), CyclesB: d.Uint(), Aligned: d.Uint(),
				FirstDivergence: d.Int(), FirstDiverging: decodeStrings(d),
			}
		}
	}
	return r
}

// encodeKernel stores the kernel profile as JSON. json.Marshal of this
// plain struct cannot fail.
func encodeKernel(k *sim.KernelStats, e *wire.Encoder) {
	data, _ := json.Marshal(k)
	e.Str(string(data))
}

// decodeKernel accepts only the JSON encodeKernel would write for the
// profile it describes, so a decoded record re-encodes to the same bytes.
func decodeKernel(d *wire.Decoder) *sim.KernelStats {
	blob := d.Str()
	if d.Err() != nil {
		return nil
	}
	k := &sim.KernelStats{}
	if err := json.Unmarshal([]byte(blob), k); err != nil {
		d.Fail("core: kernel profile: %v", err)
		return nil
	}
	if canon, _ := json.Marshal(k); string(canon) != blob {
		d.Fail("core: kernel profile is not in canonical form")
	}
	return k
}

// decodeStrings reads a length-prefixed string list; an empty list is nil.
func decodeStrings(d *wire.Decoder) []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// encodeOpt writes a presence byte, then v when it is non-nil.
func encodeOpt[T any](e *wire.Encoder, v *T, enc func(*T, *wire.Encoder)) {
	e.Bool(v != nil)
	if v != nil {
		enc(v, e)
	}
}

// decodeOpt reads what encodeOpt wrote.
func decodeOpt[T any](d *wire.Decoder, dec func(*wire.Decoder) *T) *T {
	if !d.Bool() {
		return nil
	}
	return dec(d)
}
