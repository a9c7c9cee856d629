package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)

func cfg(nInit, nTgt int) nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: nInit, NumTgt: nTgt,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(nTgt, 0x1000, 0x1000),
	}.WithDefaults()
}

func smokeTest() Test {
	return Test{
		Name:    "smoke",
		Traffic: catg.TrafficConfig{Ops: 25, UnmappedPct: 5, IdlePct: 10},
		Target:  catg.TargetConfig{MinLatency: 1, MaxLatency: 4, GntGapPct: 15},
	}
}

func TestRunTestRTLPasses(t *testing.T) {
	res, err := RunTest(cfg(2, 2), RTLView, smokeTest(), 42, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("RTL run failed: %s\nviolations: %v\nscore: %v",
			res.Summary(), res.Violations, res.ScoreErrors)
	}
	if res.CodeCov == nil {
		t.Error("RTL run must expose code coverage")
	}
	if res.Transactions != 2*25 {
		t.Errorf("transactions = %d, want 50", res.Transactions)
	}
	if !strings.Contains(res.Summary(), "PASS") {
		t.Error("summary should say PASS")
	}
}

func TestRunTestBCAHasNoCodeCoverage(t *testing.T) {
	res, err := RunTest(cfg(2, 2), BCAView, smokeTest(), 42, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("BCA run failed: %s", res.Summary())
	}
	if res.CodeCov != nil {
		t.Error("BCA run must not expose code coverage (paper: no tool for SystemC)")
	}
}

func TestRunPairSignsOffCleanModel(t *testing.T) {
	pr, err := RunPair(cfg(2, 2), smokeTest(), 7, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.SignedOff() {
		t.Fatalf("clean pair not signed off:\nRTL: %s\nBCA: %s\ncov equal: %v (%s)\n%s",
			pr.RTL.Summary(), pr.BCA.Summary(), pr.CoverageEqual, pr.CoverageDiff, pr.Alignment)
	}
	if pr.Alignment.MinRate() != 100 {
		t.Errorf("alignment %.2f%%, want 100%%", pr.Alignment.MinRate())
	}
}

func TestRunPairRejectsBuggedModel(t *testing.T) {
	c := cfg(3, 1)
	c.ReqArb = arb.LRU
	pr, err := RunPair(c, smokeTest(), 7, bca.Bugs{LRUInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if pr.SignedOff() {
		t.Error("bugged model must not sign off")
	}
	if pr.Alignment.MinRate() == 100 {
		t.Error("alignment should drop with the LRU bug")
	}
}

func TestRunTestVCDOnlyWhenRequested(t *testing.T) {
	res, err := RunTest(cfg(1, 1), RTLView, smokeTest(), 3, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wave != nil {
		t.Error("waveform captured without request")
	}
	res, err = RunTest(cfg(1, 1), RTLView, smokeTest(), 3, RunOptions{RecordWave: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wave == nil || len(res.Wave.VCD()) == 0 {
		t.Error("VCD missing")
	}
}

func TestRunTestSeedsMatter(t *testing.T) {
	a, err := RunTest(cfg(1, 1), RTLView, smokeTest(), 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTest(cfg(1, 1), RTLView, smokeTest(), 2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.Coverage.SortedBinDump() == b.Coverage.SortedBinDump() {
		t.Error("different seeds produced identical runs")
	}
	c, err := RunTest(cfg(1, 1), RTLView, smokeTest(), 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != c.Cycles || a.Coverage.SortedBinDump() != c.Coverage.SortedBinDump() {
		t.Error("same seed must reproduce the run exactly")
	}
}

func TestBuildDUTViews(t *testing.T) {
	sm := sim.New()
	d, err := BuildDUT(sim.Root(sm), cfg(2, 2), RTLView, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if d.View() != RTLView || len(d.InitPorts()) != 2 || len(d.TgtPorts()) != 2 {
		t.Error("RTL DUT malformed")
	}
	sm2 := sim.New()
	d2, err := BuildDUT(sim.Root(sm2), cfg(2, 2), BCAView, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.View() != BCAView || d2.CodeCoverage() != nil {
		t.Error("BCA DUT malformed")
	}
	if _, err := BuildDUT(sim.Root(sim.New()), cfg(2, 2), View(9), bca.Bugs{}); err == nil {
		t.Error("unknown view should fail")
	}
	if RTLView.String() != "RTL" || BCAView.String() != "BCA" {
		t.Error("view names")
	}
}

func TestRunTestDetectsStall(t *testing.T) {
	// A test with an impossible cycle budget must report not-drained.
	tst := smokeTest()
	tst.MaxCycles = 3
	res, err := RunTest(cfg(1, 1), RTLView, tst, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drained || res.Passed() {
		t.Error("3-cycle budget should not drain")
	}
}

// TestLanePairEquivalence pins RunPairLanes' contract: one PairResult per
// seed, index-matched and equal to RunPairCtx for that seed, clean and
// bugged.
func TestLanePairEquivalence(t *testing.T) {
	seeds := []int64{11, 12, 13}
	for _, tc := range []struct {
		name string
		bugs bca.Bugs
	}{
		{"clean", bca.Bugs{}},
		{"bugged", bca.Bugs{LRUInit: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg(3, 1)
			opt := RunOptions{Bugs: tc.bugs}
			prs, err := RunPairLanes(context.Background(), c, smokeTest(), seeds, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(prs) != len(seeds) {
				t.Fatalf("%d results for %d seeds", len(prs), len(seeds))
			}
			for i, seed := range seeds {
				ref, err := RunPairCtx(context.Background(), c, smokeTest(), seed, opt)
				if err != nil {
					t.Fatal(err)
				}
				if prs[i].RTL.Seed != seed || !reflect.DeepEqual(prs[i], ref) {
					t.Errorf("result %d (seed %d) differs from RunPairCtx:\n%s\n%s\nvs\n%s\n%s",
						i, seed, prs[i].RTL.Summary(), prs[i].BCA.Summary(), ref.RTL.Summary(), ref.BCA.Summary())
				}
			}
		})
	}
}

// TestRunPairRecordsOnlyWhenAsked pins the pair's artifact contract: with
// zero options neither view keeps a waveform, and the artifacts a caller asks
// for are exactly what the single-view runs produce.
func TestRunPairRecordsOnlyWhenAsked(t *testing.T) {
	c := cfg(3, 1)
	pr, err := RunPairCtx(context.Background(), c, smokeTest(), 5, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.RTL.Wave != nil || pr.BCA.Wave != nil {
		t.Error("default pair kept a waveform")
	}
	opt := RunOptions{RecordWave: true, Bugs: bca.Bugs{LRUInit: true}}
	pr, err = RunPairCtx(context.Background(), c, smokeTest(), 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*RunResult{pr.RTL, pr.BCA} {
		want, err := RunTest(c, got.View, smokeTest(), 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Wave == nil || !bytes.Equal(got.Wave.Encode(), want.Wave.Encode()) {
			t.Errorf("%s recording differs from the single-view run", got.View)
		}
	}
}

// TestRunPairCancelled checks a pair stopped by its context returns an
// error wrapping the context's.
func TestRunPairCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPairCtx(ctx, cfg(2, 2), smokeTest(), 1, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pair returned %v, want context.Canceled", err)
	}
}

// TestRunPortsCancelled checks the ports bench polls its context as the
// signal benches do: a cancelled run returns an error wrapping the
// context's.
func TestRunPortsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPorts(ctx, cfg(2, 2), smokeTest(), 1, bca.Bugs{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ports run returned %v, want context.Canceled", err)
	}
}

// TestRunPortsReportsTheBCAView pins the ports bench's report: the BCA view
// of the test and seed, with none of the signal bench's taps.
func TestRunPortsReportsTheBCAView(t *testing.T) {
	res, err := RunPorts(context.Background(), cfg(2, 2), smokeTest(), 42, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() || res.View != BCAView || res.Test != "smoke" || res.Seed != 42 || res.DUTIn.NumInit != 2 {
		t.Errorf("ports run reports %s", res.Summary())
	}
	if res.CodeCov != nil || res.Wave != nil || res.Alignment != nil || res.Kernel != nil {
		t.Error("ports run must carry no code coverage, waveform, alignment or kernel profile")
	}
}
