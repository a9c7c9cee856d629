package regress

import (
	"bytes"
	"encoding/json"
	"testing"

	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/testcases"
	"crve/internal/wire"
)

// TestStreamingAlignmentEquivalence is the safety net under the streaming
// STBA rework: for every configuration of the standard matrix, with and
// without an injected BCA bug, the online observer must produce an alignment
// report byte-identical (as JSON and as the rendered table) to the legacy
// write-two-VCDs/parse/Compare round trip — and the cache record of the pair
// must be unchanged, so warm caches stay coherent across the switch. The
// streaming path must also be what it claims: no VCD text buffer may exist
// on either run.
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

	for _, bugs := range []bca.Bugs{{}, {LRUInit: true}} {
		bugs := bugs
		label := "clean"
		if bugs != (bca.Bugs{}) {
			label = "lru_bug"
		}
		for _, cfg := range cfgs {
			cfg := cfg
			t.Run(cfg.Name+"/"+label, func(t *testing.T) {
				str, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{Bugs: bugs})
				if err != nil {
					t.Fatal(err)
				}
				leg, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{Bugs: bugs, LegacyAlignment: true})
				if err != nil {
					t.Fatal(err)
				}

				if str.RTL.VCD != nil || str.BCA.VCD != nil {
					t.Error("streaming path must not build VCD text buffers")
				}
				if str.RTL.Wave != nil || str.BCA.Wave != nil {
					t.Error("streaming path must not retain recordings unless asked")
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
				// byte-identical so existing caches and the new path agree.
				var se, le wire.Encoder
				str.Record().Encode(&se)
				leg.Record().Encode(&le)
				if !bytes.Equal(se.Bytes(), le.Bytes()) {
					t.Errorf("pair records differ:\nstream: %x\nlegacy: %x", se.Bytes(), le.Bytes())
				}
			})
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
