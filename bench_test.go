// Benchmarks regenerating the paper's evaluation (one benchmark per
// experiment of DESIGN.md §4) plus ablation benches for the design choices
// DESIGN.md §5 calls out. Run with:
//
//	go test -bench=. -benchmem
package crve_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/experiments"
	"crve/internal/nodespec"
	"crve/internal/oldflow"
	"crve/internal/regress"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

func refCfg() nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 3, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}.WithDefaults()
}

// BenchmarkE1RegressionMatrix measures one configuration's full-suite
// regression (both views, alignment, coverage merge) — the unit of the ≥36
// configuration matrix of experiment E1.
func BenchmarkE1RegressionMatrix(b *testing.B) {
	cfg := regress.StandardMatrix()[7]
	opt := regress.Options{Tests: testcases.All()[:4], Seeds: []int64{1}}
	for i := 0; i < b.N; i++ {
		cr, err := regress.RunConfig(cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !cr.SignedOff() {
			b.Fatal("config failed sign-off")
		}
	}
}

// BenchmarkE2BugDetection measures one bugged-model detection round: the
// past flow (which misses) plus one common-flow pair (which catches).
func BenchmarkE2BugDetection(b *testing.B) {
	cfg := refCfg()
	bug := bca.Bugs{LRUInit: true}
	tc, err := testcases.ByName("hot_target")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		old, err := oldflowRun(cfg, bug)
		if err != nil {
			b.Fatal(err)
		}
		if !old {
			b.Fatal("past flow unexpectedly caught the bug")
		}
		pair, err := core.RunPair(cfg, tc, 1, bug)
		if err != nil {
			b.Fatal(err)
		}
		if pair.Alignment.AllPass() && pair.BCA.Passed() {
			b.Fatal("common flow missed the bug")
		}
	}
}

// BenchmarkE3CoverageEquality measures one same-test-same-seed pair run plus
// the bin-exact coverage comparison.
func BenchmarkE3CoverageEquality(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("random_mixed")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pair, err := core.RunPair(cfg, tc, 1, bca.Bugs{})
		if err != nil {
			b.Fatal(err)
		}
		if eq, why := pair.RTL.Coverage.EqualHits(pair.BCA.Coverage); !eq {
			b.Fatal(why)
		}
	}
}

// BenchmarkE4Alignment measures the offline STBus Analyzer (cmd/stba):
// parsing two VCD dumps and computing per-port alignment rates. The paired
// flow compares the views online instead, so the dumps are re-served from
// the pair's recordings.
func BenchmarkE4Alignment(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	pair, err := core.RunPairCtx(context.Background(), cfg, tc, 1, core.RunOptions{RecordWave: true})
	if err != nil {
		b.Fatal(err)
	}
	rtlVCD, bcaVCD := pair.RTL.Wave.VCD(), pair.BCA.Wave.VCD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := vcd.Parse(bytes.NewReader(rtlVCD))
		if err != nil {
			b.Fatal(err)
		}
		fb, err := vcd.Parse(bytes.NewReader(bcaVCD))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := stba.Compare(fr, fb, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.MinRate() != 100 {
			b.Fatal("clean pair should align")
		}
	}
}

// BenchmarkStreamingPair measures the paired flow: the views run in lockstep
// and the online observer compares them cycle by cycle — nothing is
// recorded, no VCD text is built and nothing is parsed back. It reports
// paired simulated cycles per second.
func BenchmarkStreamingPair(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		pair, err := core.RunPairCtx(context.Background(), cfg, tc, 1, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pair.Alignment.MinRate() != 100 {
			b.Fatal("clean pair should align")
		}
		total += pair.RTL.Cycles + pair.BCA.Cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "cycles/s")
}

// benchViewThroughput runs a saturating test on one view and reports
// simulated cycles per second — the E5 metric.
func benchViewThroughput(b *testing.B, view core.View) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := core.RunTest(cfg, view, tc, 7, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkE5RTL measures RTL-view throughput in the common environment.
func BenchmarkE5RTL(b *testing.B) {
	benchViewThroughput(b, core.RTLView)
}

// BenchmarkE5BCAWrapped measures the wrapped BCA view — per the paper, the
// wrapper costs it the standalone speed advantage.
func BenchmarkE5BCAWrapped(b *testing.B) {
	benchViewThroughput(b, core.BCAView)
}

// BenchmarkE5BCAStandalone measures the bare transaction engine with
// function-call harnesses, no signal kernel.
func BenchmarkE5BCAStandalone(b *testing.B) {
	cfg := refCfg()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := bca.RunStandalone(bca.StandaloneConfig{
			Node: cfg, Seed: 7, OpsPerInit: 80, MemLatency: 1})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkE7PortsApproach measures the future-work transaction-level bench
// (paper §6: direct model integration "should enhance simulation
// performance").
func BenchmarkE7PortsApproach(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		res, err := core.RunPorts(context.Background(), cfg, tc, 7, bca.Bugs{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatal("ports-approach run failed")
		}
		total += res.Cycles
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkE6CodeCoverage measures an instrumented RTL run plus the
// code-coverage report.
func BenchmarkE6CodeCoverage(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("random_mixed")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.RunTest(cfg, core.RTLView, tc, 1, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.CodeCov == nil || res.CodeCov.Report() == "" {
			b.Fatal("missing code coverage")
		}
	}
}

// BenchmarkFlowF45 measures the full Figures 4/5 narrative flow.
func BenchmarkFlowF45(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Flow(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblationDeltaKernel quantifies the delta-cycle kernel cost: it
// runs the RTL node and reports delta iterations per simulated cycle, the
// price paid for SystemC-style same-cycle grant settling.
func BenchmarkAblationDeltaKernel(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	deltas, cycles := uint64(0), uint64(0)
	for i := 0; i < b.N; i++ {
		sm := sim.New()
		dut, err := core.BuildDUT(sim.Root(sm), cfg, core.RTLView, bca.Bugs{})
		if err != nil {
			b.Fatal(err)
		}
		var bfms []*catg.InitiatorBFM
		for k, p := range dut.InitPorts() {
			ops := catg.GenerateOps(cfg, tc.Traffic, k, 3)
			bfms = append(bfms, catg.NewInitiatorBFM(sm, p, ops))
		}
		for t, p := range dut.TgtPorts() {
			catg.NewTargetBFM(sm, p, tc.Target, int64(t))
		}
		done := func() bool {
			for _, bfm := range bfms {
				if !bfm.Core().Done() {
					return false
				}
			}
			return true
		}
		if err := sm.RunUntil(done, 100000); err != nil {
			b.Fatal(err)
		}
		deltas += sm.DeltaCount
		cycles += sm.Cycle()
	}
	b.ReportMetric(float64(deltas)/float64(cycles), "deltas/cycle")
}

// BenchmarkAblationArch compares shared-bus and full-crossbar node
// architectures on the same traffic (cycles to drain).
func BenchmarkAblationArch(b *testing.B) {
	for _, arch := range []nodespec.Arch{nodespec.SharedBus, nodespec.FullCrossbar} {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			cfg := refCfg()
			cfg.Arch = arch
			cfg.ReqArb, cfg.RespArb = arb.RoundRobin, arb.RoundRobin
			total := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := bca.RunStandalone(bca.StandaloneConfig{
					Node: cfg, Seed: 3, OpsPerInit: 60, MemLatency: 1})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Cycles
			}
			b.ReportMetric(float64(total)/float64(b.N), "drain-cycles")
		})
	}
}

// BenchmarkAblationArbitration compares the six arbitration policies under
// identical hot-target contention (drain cycles per policy).
func BenchmarkAblationArbitration(b *testing.B) {
	for _, kind := range arb.Kinds {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			cfg := refCfg()
			cfg.ReqArb = kind
			if kind == arb.Programmable {
				cfg.ProgPort = true
				cfg.ProgBase = 0x10_0000
			}
			total := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := bca.RunStandalone(bca.StandaloneConfig{
					Node: cfg, Seed: 5, OpsPerInit: 60, MemLatency: 2})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Cycles
			}
			b.ReportMetric(float64(total)/float64(b.N), "drain-cycles")
		})
	}
}

// BenchmarkVCDWrite measures waveform-dump overhead per simulated cycle: a
// recorded run rendered as text VCD.
func BenchmarkVCDWrite(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := core.RunTest(cfg, core.RTLView, tc, 1, core.RunOptions{RecordWave: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Wave.VCD()) == 0 {
			b.Fatal("no dump")
		}
	}
}

// BenchmarkVCDParse measures dump parsing, the analyzer's input stage.
func BenchmarkVCDParse(b *testing.B) {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunTest(cfg, core.RTLView, tc, 1, core.RunOptions{RecordWave: true})
	if err != nil {
		b.Fatal(err)
	}
	text := res.Wave.VCD()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vcd.Parse(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStep measures the bare kernel: a 64-signal design stepping
// with one comb and one seq process per signal pair.
func BenchmarkKernelStep(b *testing.B) {
	sm := sim.New()
	var regs []*sim.Signal
	for i := 0; i < 32; i++ {
		d := sm.Signal("d", 32)
		q := sm.Signal("q", 32)
		sm.CombOut("inc", func() { q.SetU64(d.U64() + 1) }, []*sim.Signal{q}, d)
		sm.Seq("reg", func() { d.Set(q.Get()) })
		regs = append(regs, q)
	}
	_ = regs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sm.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStepWatched is BenchmarkKernelStep with every register
// on a change journal drained each cycle, as the alignment and waveform
// taps drain theirs: the journal must stay allocation-free.
func BenchmarkKernelStepWatched(b *testing.B) {
	sm := sim.New()
	var regs []*sim.Signal
	for i := 0; i < 32; i++ {
		d := sm.Signal("d", 32)
		q := sm.Signal("q", 32)
		sm.CombOut("inc", func() { q.SetU64(d.U64() + 1) }, []*sim.Signal{q}, d)
		sm.Seq("reg", func() { d.Set(q.Get()) })
		regs = append(regs, d)
	}
	w := sm.Watch(regs)
	b.ReportAllocs()
	b.ResetTimer()
	noted := 0
	for i := 0; i < b.N; i++ {
		if err := sm.Step(); err != nil {
			b.Fatal(err)
		}
		noted += len(w.Drain())
	}
	b.ReportMetric(float64(noted)/float64(b.N), "noted/cycle")
}

// BenchmarkKernelStepChain measures settle depth: a single depth-32
// combinational chain, which the levelized scheduler settles in one ranked
// sweep (an iterate-to-fixpoint loop would take 33 deltas per cycle). The
// deltas/cycle metric sits next to ns/op.
func BenchmarkKernelStepChain(b *testing.B) {
	const depth = 32
	sm := sim.New()
	sigs := make([]*sim.Signal, depth+1)
	for i := range sigs {
		sigs[i] = sm.Signal("s", 32)
	}
	for i := 0; i < depth; i++ {
		i := i
		sm.CombOut("link", func() { sigs[i+1].SetU64(sigs[i].U64() + 1) }, []*sim.Signal{sigs[i+1]}, sigs[i])
	}
	sm.Seq("drive", func() { sigs[0].SetU64(sigs[0].U64() + 1) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sm.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sm.DeltaCount)/float64(sm.Cycle()), "deltas/cycle")
}

// oldflowRun wraps the past flow for the E2 bench (true = bug missed).
func oldflowRun(cfg nodespec.Config, bugs bca.Bugs) (bool, error) {
	res, err := oldflow.Run(cfg, bugs, 15, 1)
	if err != nil {
		return false, err
	}
	return res.Passed, nil
}
