package regress

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/stba"
	"crve/internal/testcases"
	"crve/internal/wire"
)

// TestStreamingAlignmentEquivalence is the safety net under the streaming
// STBA: for every configuration of the standard matrix, clean, under each of
// the five BCA bugs, and cut short so the views stop undrained at different
// cycles, the lockstep pair's online observer must produce an alignment
// report byte-identical (as JSON and as the rendered table), and the same
// verdict, as the offline analyzer stba.Compare run over the pair's two
// recordings. Its cache record must also equal the sequential composition's
// — the pair's RTL view, then a BCA run observing the RTL recording through
// AlignWith — so warm caches stay coherent and the traced replay that times
// the views one after the other still reproduces the engine.
func TestStreamingAlignmentEquivalence(t *testing.T) {
	cfgs := StandardMatrix()
	if testing.Short() {
		cfgs = cfgs[:6]
	}
	tc, cut := equivTest(t), cutShortTest(t)
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
				pair, err := core.RunPairOpt(cfg, row.test, equivSeed, core.RunOptions{RecordWave: true, Bugs: row.bugs})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := stba.Compare(pair.RTL.Wave.File(), pair.BCA.Wave.File(), nil)
				if err != nil {
					t.Fatal(err)
				}
				pj, err := json.Marshal(pair.Alignment)
				if err != nil {
					t.Fatal(err)
				}
				rj, err := json.Marshal(ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pj, rj) {
					t.Errorf("alignment reports differ:\nlockstep: %s\nCompare:  %s", pj, rj)
				}
				if pair.Alignment.String() != ref.String() {
					t.Errorf("rendered alignment tables differ:\n--- lockstep ---\n%s--- Compare ---\n%s",
						pair.Alignment, ref)
				}
				refOff := pair.RTL.Passed() && pair.BCA.Passed() && pair.CoverageEqual && ref.AllPass()
				if pair.SignedOff() != refOff {
					t.Errorf("sign-off verdicts differ: lockstep %v, Compare %v", pair.SignedOff(), refOff)
				}

				// The cache unit is the encoded PairRecord; it must be
				// byte-identical so existing caches and every path agree.
				bres, err := core.RunTestCtx(context.Background(), cfg, core.BCAView, row.test, equivSeed,
					core.RunOptions{AlignWith: pair.RTL.Wave, Bugs: row.bugs})
				if err != nil {
					t.Fatal(err)
				}
				seq := &core.PairResult{RTL: pair.RTL, BCA: bres, Alignment: bres.Alignment}
				seq.CoverageEqual, seq.CoverageDiff = pair.RTL.Coverage.EqualHits(bres.Coverage)
				if pe, qe := encodeRecord(pair), encodeRecord(seq); !bytes.Equal(pe, qe) {
					t.Errorf("pair records differ:\nlockstep:   %x\nsequential: %x", pe, qe)
				}
			})
		}
	}
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
// any-width property on the streaming path: the same logs and matrix report
// at -j1 and -j8.
func TestStreamingEngineDeterminism(t *testing.T) {
	cfgs := StandardMatrix()[:3]
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (string, string) {
		var log bytes.Buffer
		opt := Options{
			Tests: []core.Test{tc}, Seeds: []int64{1, 2},
			Workers: workers, Log: &log, NoLint: true,
		}
		results, _, err := Run(cfgs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return log.String(), MatrixReport(results)
	}

	serialLog, serialRep := run(1)
	parallelLog, parallelRep := run(8)
	if serialLog != parallelLog {
		t.Errorf("streaming logs differ between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s", serialLog, parallelLog)
	}
	if serialRep != parallelRep {
		t.Errorf("streaming matrix reports differ between -j1 and -j8")
	}
}
