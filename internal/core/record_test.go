package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"crve/internal/arb"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/wire"
)

// encodeRecord returns the binary form of rec.
func encodeRecord(rec *core.PairRecord) []byte {
	var e wire.Encoder
	rec.Encode(&e)
	return e.Bytes()
}

// decodeRecord decodes data as exactly one record.
func decodeRecord(data []byte) (*core.PairRecord, error) {
	d := wire.NewDecoder(data)
	rec := core.DecodePairRecord(d)
	return rec, d.Finish()
}

// roundTrip encodes rec and decodes it back, failing on any error or when
// the restored record does not re-encode to the same bytes.
func roundTrip(t *testing.T, rec *core.PairRecord) *core.PairRecord {
	t.Helper()
	data := encodeRecord(rec)
	back, err := decodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRecord(back), data) {
		t.Fatal("restored record re-encodes to other bytes")
	}
	return back
}

// TestPairRecordRoundTrip runs one real pair, snapshots it through the binary
// record and checks the restored result is indistinguishable in every report
// the regression layer derives from it — the contract the incremental cache
// depends on.
func TestPairRecordRoundTrip(t *testing.T) {
	cfg := nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 1,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(1, 0x1000, 0x1000),
	}.WithDefaults()
	test := core.Test{
		Name:    "record_round_trip",
		Traffic: catg.TrafficConfig{Ops: 6, Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4}},
	}
	pair, err := core.RunPairOpt(cfg, test, 7, core.RunOptions{KernelStats: true, RecordWave: true})
	if err != nil {
		t.Fatal(err)
	}

	back := roundTrip(t, pair.Record()).Result(cfg)

	if back.RTL.Summary() != pair.RTL.Summary() || back.BCA.Summary() != pair.BCA.Summary() {
		t.Errorf("summaries changed:\n%s\n%s\nvs\n%s\n%s",
			pair.RTL.Summary(), pair.BCA.Summary(), back.RTL.Summary(), back.BCA.Summary())
	}
	if back.SignedOff() != pair.SignedOff() {
		t.Errorf("sign-off changed: %v vs %v", pair.SignedOff(), back.SignedOff())
	}
	if back.Alignment.MinRate() != pair.Alignment.MinRate() {
		t.Errorf("alignment %.4f vs %.4f", pair.Alignment.MinRate(), back.Alignment.MinRate())
	}
	if back.Alignment.String() != pair.Alignment.String() {
		t.Error("alignment table changed across round trip")
	}
	if eq, diff := back.RTL.Coverage.EqualHits(pair.RTL.Coverage); !eq {
		t.Errorf("RTL coverage changed: %s", diff)
	}
	if back.RTL.CodeCov == nil || back.RTL.CodeCov.Report() != pair.RTL.CodeCov.Report() {
		t.Error("RTL code coverage changed across round trip")
	}
	// The paper's asymmetry must survive: the BCA view has no code coverage.
	if back.BCA.CodeCov != nil {
		t.Error("BCA code coverage must stay nil")
	}
	if back.RTL.Wave != nil || back.BCA.Wave != nil {
		t.Error("records must not carry waveforms")
	}
	if back.RTL.DUTIn.Name != cfg.Name {
		t.Errorf("restored DUTIn %q", back.RTL.DUTIn.Name)
	}
	if len(back.RTL.Latencies) != len(pair.RTL.Latencies) {
		t.Errorf("latencies %d vs %d", len(pair.RTL.Latencies), len(back.RTL.Latencies))
	}
	wantKernel, _ := json.Marshal(pair.RTL.Kernel)
	if gotKernel, _ := json.Marshal(back.RTL.Kernel); back.RTL.Kernel == nil || !bytes.Equal(gotKernel, wantKernel) {
		t.Errorf("RTL kernel profile changed across round trip:\n%s\nvs\n%s", wantKernel, gotKernel)
	}
}

// TestRunRecordKeepsFailures checks failed runs round-trip as failed —
// a cache that launders failures into passes would be worse than no cache.
func TestRunRecordKeepsFailures(t *testing.T) {
	res := &core.RunResult{RunRecord: core.RunRecord{
		Test: "t", Seed: 1, View: core.BCAView,
		Drained:     true,
		Violations:  []catg.Violation{{Cycle: 9, Port: "init0", Rule: "stability", Detail: "payload changed"}},
		ScoreErrors: []string{"lost transaction"},
	}}
	rec := roundTrip(t, &core.PairRecord{RTL: res.Record(), BCA: res.Record()})
	back := rec.BCA.Result(nodespec.Config{}.WithDefaults())
	if back.Passed() {
		t.Error("failed run restored as passed")
	}
	if len(back.Violations) != 1 || back.Violations[0].String() != res.Violations[0].String() {
		t.Errorf("violations %v", back.Violations)
	}
	if len(back.ScoreErrors) != 1 || back.ScoreErrors[0] != res.ScoreErrors[0] {
		t.Errorf("scoreboard errors %v", back.ScoreErrors)
	}
	if back.View != core.BCAView {
		t.Errorf("view %v", back.View)
	}
}

// TestEmptyAlignmentFailsSignoff is the regression test for the vacuous
// sign-off hole at the pair level: a PairResult whose alignment report is
// nil or empty — a zero-value or truncated cached record — used to sign off
// because Report.AllPass() was vacuously true.
func TestEmptyAlignmentFailsSignoff(t *testing.T) {
	passing := &core.RunResult{RunRecord: core.RunRecord{Drained: true}}
	for name, rep := range map[string]*stba.Report{"nil": nil, "empty": {}} {
		pr := &core.PairResult{RTL: passing, BCA: passing, Alignment: rep, CoverageEqual: true}
		if pr.SignedOff() {
			t.Errorf("pair with %s alignment report must not sign off", name)
		}
		// A record stored without ports restores without ports and must
		// stay failed too.
		if roundTrip(t, pr.Record()).Result(nodespec.Config{}.WithDefaults()).SignedOff() {
			t.Errorf("restored record with %s alignment must not sign off", name)
		}
	}
	// A record cut short does not restore at all.
	data := encodeRecord((&core.PairResult{RTL: passing, BCA: passing, Alignment: &stba.Report{}, CoverageEqual: true}).Record())
	if _, err := decodeRecord(data[:len(data)-1]); err == nil {
		t.Error("truncated record must fail to decode")
	}
}
