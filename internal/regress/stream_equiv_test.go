package regress

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/testcases"
	"crve/internal/wire"
)

// TestStreamingAlignmentEquivalence is the safety net under the streaming
// STBA: for every configuration of the standard matrix, clean, under each of
// the five BCA bugs, and cut short so the views stop undrained at different
// cycles, the lockstep pair's online observer must produce an alignment
// report byte-identical (as JSON and as the rendered table) to the legacy
// write-two-VCDs/parse/Compare round trip. Its cache record must also equal
// both the legacy pair's and the sequential composition's — the RTL view run
// with RecordWave, then the BCA view observing that recording — so warm
// caches stay coherent and the traced replay that times the views one after
// the other still reproduces the engine. The default pair must also be what
// it claims: no VCD text buffer and no recording on either run.
func TestStreamingAlignmentEquivalence(t *testing.T) {
	cfgs := StandardMatrix()
	if testing.Short() {
		cfgs = cfgs[:6]
	}
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	// Cut short under the ordering bug, error_paths leaves most views
	// undrained and stops some pairs' views at different cycles, one of
	// them drained and the other not.
	cut, err := testcases.ByName("error_paths")
	if err != nil {
		t.Fatal(err)
	}
	cut.MaxCycles = 120

	rows := []struct {
		label string
		test  core.Test
		bugs  bca.Bugs
	}{
		{"clean", tc, bca.Bugs{}},
		{"lru_bug", tc, bca.Bugs{LRUInit: true}},
		{"chunk_lck_bug", tc, bca.Bugs{ChunkLckIgnored: true}},
		{"pipe_bug", tc, bca.Bugs{PipeOffByOne: true}},
		{"err_tid_bug", tc, bca.Bugs{ErrRespTIDZero: true}},
		{"t2_order_bug", tc, bca.Bugs{T2OrderIgnored: true}},
		{"cut_short", cut, bca.Bugs{T2OrderIgnored: true}},
	}
	for _, row := range rows {
		row := row
		for _, cfg := range cfgs {
			cfg := cfg
			t.Run(cfg.Name+"/"+row.label, func(t *testing.T) {
				t.Parallel()
				str, err := core.RunPairOpt(cfg, row.test, seed, core.RunOptions{Bugs: row.bugs})
				if err != nil {
					t.Fatal(err)
				}
				leg, err := core.RunPairOpt(cfg, row.test, seed, core.RunOptions{Bugs: row.bugs, LegacyAlignment: true})
				if err != nil {
					t.Fatal(err)
				}
				seq := sequentialPair(t, cfg, row.test, seed, row.bugs)

				if str.RTL.VCD != nil || str.BCA.VCD != nil {
					t.Error("streaming path must not build VCD text buffers")
				}
				if str.RTL.Wave != nil || str.BCA.Wave != nil {
					t.Error("streaming path must not record waveforms unless asked")
				}

				sj, err := json.Marshal(str.Alignment)
				if err != nil {
					t.Fatal(err)
				}
				lj, err := json.Marshal(leg.Alignment)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sj, lj) {
					t.Errorf("alignment reports differ:\nstream: %s\nlegacy: %s", sj, lj)
				}
				if str.Alignment.String() != leg.Alignment.String() {
					t.Errorf("rendered alignment tables differ:\n--- stream ---\n%s--- legacy ---\n%s",
						str.Alignment, leg.Alignment)
				}
				if str.SignedOff() != leg.SignedOff() {
					t.Errorf("sign-off verdicts differ: stream %v, legacy %v", str.SignedOff(), leg.SignedOff())
				}

				// The cache unit is the encoded PairRecord; it must be
				// byte-identical so existing caches and every path agree.
				se, le, qe := encodeRecord(str), encodeRecord(leg), encodeRecord(seq)
				if !bytes.Equal(se, le) {
					t.Errorf("pair records differ:\nstream: %x\nlegacy: %x", se, le)
				}
				if !bytes.Equal(se, qe) {
					t.Errorf("pair records differ:\nlockstep:   %x\nsequential: %x", se, qe)
				}
			})
		}
	}
}

// sequentialPair composes a pair from the public single-view calls: the RTL
// view recording its ports, then the BCA view observing that recording.
func sequentialPair(t *testing.T, cfg nodespec.Config, test core.Test, seed int64, bugs bca.Bugs) *core.PairResult {
	t.Helper()
	ctx := context.Background()
	rres, err := core.RunTestCtx(ctx, cfg, core.RTLView, test, seed, core.RunOptions{RecordWave: true})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := core.RunTestCtx(ctx, cfg, core.BCAView, test, seed, core.RunOptions{AlignWith: rres.Wave, Bugs: bugs})
	if err != nil {
		t.Fatal(err)
	}
	pr := &core.PairResult{RTL: rres, BCA: bres, Alignment: bres.Alignment}
	pr.CoverageEqual, pr.CoverageDiff = rres.Coverage.EqualHits(bres.Coverage)
	return pr
}

func encodeRecord(pr *core.PairResult) []byte {
	var e wire.Encoder
	pr.Record().Encode(&e)
	return e.Bytes()
}

// TestCutShortPairRecordDeterministic runs a pair that stops before draining,
// so transactions are left over on the target side, and requires every run to
// encode the same PairRecord: the scoreboard must report leftovers in a fixed
// order, because its errors are part of the cached record and the report.
func TestCutShortPairRecordDeterministic(t *testing.T) {
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}
	tc.MaxCycles = 120
	cfg := StandardMatrix()[17]
	var first []byte
	for i := 0; i < 20; i++ {
		pr, err := core.RunPair(cfg, tc, 5, bca.Bugs{})
		if err != nil {
			t.Fatal(err)
		}
		enc := encodeRecord(pr)
		if i == 0 {
			first = enc
			continue
		}
		if !bytes.Equal(enc, first) {
			t.Fatalf("run %d encodes a different PairRecord than run 0:\nRTL: %q\nBCA: %q",
				i, pr.RTL.ScoreErrors, pr.BCA.ScoreErrors)
		}
	}
}

// TestStreamingEngineDeterminism re-asserts the engine's byte-identical-at-
// any-width property on the streaming path, and that the streaming and
// legacy pipelines produce the same logs and matrix report end to end.
func TestStreamingEngineDeterminism(t *testing.T) {
	cfgs := StandardMatrix()[:3]
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int, legacy bool) (string, string) {
		var log bytes.Buffer
		opt := Options{
			Tests: []core.Test{tc}, Seeds: []int64{1, 2},
			Workers: workers, Log: &log, NoLint: true, LegacyAlignment: legacy,
		}
		results, _, err := Run(cfgs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return log.String(), MatrixReport(results)
	}

	serialLog, serialRep := run(1, false)
	parallelLog, parallelRep := run(8, false)
	if serialLog != parallelLog {
		t.Errorf("streaming logs differ between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s", serialLog, parallelLog)
	}
	if serialRep != parallelRep {
		t.Errorf("streaming matrix reports differ between -j1 and -j8")
	}
	legacyLog, legacyRep := run(8, true)
	if legacyLog != serialLog {
		t.Errorf("legacy and streaming logs differ:\n--- legacy ---\n%s--- stream ---\n%s", legacyLog, serialLog)
	}
	if legacyRep != serialRep {
		t.Errorf("legacy and streaming matrix reports differ:\n--- legacy ---\n%s--- stream ---\n%s", legacyRep, serialRep)
	}
}
