// Package core assembles the paper's contribution: the Common Reusable
// Verification Environment. One environment — harnesses, monitors, protocol
// checkers, scoreboard, functional coverage (all from internal/catg) — into
// which either design view plugs unchanged:
//
//	DUT (RTL or BCA)  ←→  CATG bench  →  reports (+ waveform recordings)
//
// RunTest executes one (test file, seed) pair against one view; RunPair
// executes the same pair against both views in lockstep, streams the STBus
// Analyzer comparison across them cycle by cycle (waveforms are opt-in
// artifacts, not the comparison medium) and checks functional-coverage
// equality — the full flow of the paper's Figures 4 and 5.
package core

import (
	"context"
	"fmt"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// View names a design view of the IP.
type View int

const (
	// RTLView is the synthesisable signal-level model.
	RTLView View = iota
	// BCAView is the bus-cycle-accurate model wrapped for the common bench.
	BCAView
)

func (v View) String() string {
	if v == BCAView {
		return "BCA"
	}
	return "RTL"
}

// DUT is what the common environment needs from a design view: its port
// bundles and, when available, its code-coverage instrumentation. Both node
// views satisfy it through the adapters below.
type DUT interface {
	// InitPorts returns the initiator-facing ports.
	InitPorts() []*stbus.Port
	// TgtPorts returns the target-facing ports.
	TgtPorts() []*stbus.Port
	// CodeCoverage returns the instrumentation map, nil when the view has
	// none (the BCA case: "no tool is able to generate this metrics for
	// SystemC").
	CodeCoverage() *coverage.CodeMap
	// View identifies the design view.
	View() View
}

type rtlDUT struct{ n *rtl.Node }

func (d rtlDUT) InitPorts() []*stbus.Port        { return d.n.Init }
func (d rtlDUT) TgtPorts() []*stbus.Port         { return d.n.Tgt }
func (d rtlDUT) CodeCoverage() *coverage.CodeMap { return d.n.Code }
func (d rtlDUT) View() View                      { return RTLView }

type bcaDUT struct{ n *bca.Node }

func (d bcaDUT) InitPorts() []*stbus.Port        { return d.n.Init }
func (d bcaDUT) TgtPorts() []*stbus.Port         { return d.n.Tgt }
func (d bcaDUT) CodeCoverage() *coverage.CodeMap { return nil }
func (d bcaDUT) View() View                      { return BCAView }

// BuildDUT elaborates the requested view of the node under sc. bugs applies
// to the BCA view only (the RTL view is the reference).
func BuildDUT(sc sim.Scope, cfg nodespec.Config, view View, bugs bca.Bugs) (DUT, error) {
	switch view {
	case RTLView:
		n, err := rtl.NewNode(sc, cfg)
		if err != nil {
			return nil, err
		}
		return rtlDUT{n}, nil
	case BCAView:
		n, err := bca.NewNode(sc, cfg, bugs)
		if err != nil {
			return nil, err
		}
		return bcaDUT{n}, nil
	default:
		return nil, fmt.Errorf("core: unknown view %d", int(view))
	}
}

// Test is one test file of the suite: named traffic and target-timing
// constraints, reusable across every node configuration (the paper's twelve
// "generic" test cases "depend on some HDL parameters" and "can be reused
// for all configurations").
type Test struct {
	Name string
	// Traffic configures the initiator BFMs. TrafficFor allows per-initiator
	// specialisation; when nil, Traffic applies to every initiator.
	Traffic    catg.TrafficConfig
	TrafficFor func(cfg nodespec.Config, initIdx int) catg.TrafficConfig
	// Target configures the target BFMs. TargetFor allows per-target
	// specialisation (e.g. one slow target to force out-of-order traffic).
	Target    catg.TargetConfig
	TargetFor func(cfg nodespec.Config, tgtIdx int) catg.TargetConfig
	// MaxCycles bounds the run (0 = derived from traffic volume).
	MaxCycles int
}

func (t Test) trafficFor(cfg nodespec.Config, i int) catg.TrafficConfig {
	if t.TrafficFor != nil {
		return t.TrafficFor(cfg, i)
	}
	return t.Traffic
}

func (t Test) targetFor(cfg nodespec.Config, tg int) catg.TargetConfig {
	if t.TargetFor != nil {
		return t.TargetFor(cfg, tg)
	}
	return t.Target
}

// RunResult is the verification report of one (test, seed, view) run.
type RunResult struct {
	Test  string
	Seed  int64
	View  View
	DUTIn nodespec.Config

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
	// Wave is the compact binary waveform recording, captured when
	// RunOptions.RecordWave is set — the storable artifact that can re-serve
	// values or the text VCD on demand.
	Wave *vcd.Recording
	// Alignment is the streaming STBA report against RunOptions.AlignWith.
	Alignment *stba.Report
	// Kernel is the simulation-kernel profile, collected when
	// RunOptions.KernelStats is set.
	Kernel *sim.KernelStats
}

// Passed reports whether every automatic check of the run succeeded.
func (r *RunResult) Passed() bool {
	return r.Drained && len(r.Violations) == 0 && len(r.ScoreErrors) == 0
}

// Summary renders the one-line verdict of the run.
func (r *RunResult) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-4s %-24s seed=%-6d %s: %d cycles, %d txs, %d violations, %d scoreboard errors, cov %.1f%%",
		r.View, r.Test, r.Seed, verdict, r.Cycles, r.Transactions, len(r.Violations),
		len(r.ScoreErrors), r.Coverage.Percent())
}

// RunOptions tunes a RunTest invocation.
type RunOptions struct {
	// RecordWave captures the DUT port waveforms as a compact binary
	// Recording (RunResult.Wave), which re-serves them as text VCD.
	RecordWave bool
	// AlignWith, when set, attaches a streaming STBA observer comparing the
	// run's port signals cycle-by-cycle against this reference recording;
	// the per-port report lands in RunResult.Alignment.
	AlignWith *vcd.Recording
	// KernelStats collects the kernel profile (per-process evaluation
	// counts, settle-depth histogram, SCC inventory) into RunResult.Kernel,
	// and enables sampled per-process wall-time collection.
	KernelStats bool
	// Kernel is ignored: every run uses the levelized scheduler.
	//
	// Deprecated: kept only for perfledger's kernel probe; nothing reads it.
	Kernel sim.Kernel
	// Bugs applies to the BCA view.
	Bugs bca.Bugs
}

// RunTest builds a fresh simulator, elaborates the requested view, wires the
// common bench around it, runs the test to drain and collects every report.
func RunTest(cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions) (*RunResult, error) {
	return RunTestCtx(context.Background(), cfg, view, test, seed, opt)
}

// tailCycles is the short run after a view drains, so registered responses
// and monitors settle.
const tailCycles = 5

// benchInst is one fully wired bench+DUT instance and its run in progress:
// elaboration (startView), the run loop applied one cycle per call (step)
// and report collection (finish). RunTestCtx steps one instance to the end;
// RunPairCtx steps two in lockstep.
type benchInst struct {
	ctx      context.Context
	sm       *sim.Simulator
	dut      DUT
	res      *RunResult
	bfms     []*catg.InitiatorBFM
	initMons []*catg.Monitor
	tgtMons  []*catg.Monitor
	checkers []*catg.Checker
	sb       *catg.Scoreboard
	cov      *catg.CoverageModel
	limit    int
	rc       *vcd.Recorder
	obs      *stba.Observer
	kstats   bool // collect the kernel profile

	// Run state: cycles run before draining, drain checks made (the
	// context is polled every 64th), tail cycles left (-1 until the view
	// drains), and whether and how the run ended.
	ran, polls, tail int
	stopped          bool
	err              error
}

// trafficOps generates every initiator's operation stream for (test, seed).
// The BFMs only read them, so one set can drive both views of a pair.
func trafficOps(cfg nodespec.Config, test Test, seed int64) [][]catg.Op {
	ops := make([][]catg.Op, cfg.NumInit)
	for i := range ops {
		ops[i] = catg.GenerateOps(cfg, test.trafficFor(cfg, i), i, seed)
	}
	return ops
}

// startView builds a fresh simulator for the requested view and wires the
// common environment around the DUT: BFMs driven by ops, monitors, checkers,
// scoreboard, coverage, and whichever waveform/alignment taps the options
// request. cfg must already have its defaults applied.
func startView(ctx context.Context, cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions, ops [][]catg.Op) (*benchInst, error) {
	sm := sim.New()
	sm.Timing = opt.KernelStats
	b := &benchInst{
		ctx: ctx, sm: sm, kstats: opt.KernelStats, limit: test.MaxCycles, tail: -1,
		res: &RunResult{Test: test.Name, Seed: seed, View: view, DUTIn: cfg},
	}
	dut, err := BuildDUT(sim.Root(sm), cfg, view, opt.Bugs)
	if err != nil {
		return nil, err
	}
	b.dut = dut

	totalCells := 0
	for i, p := range dut.InitPorts() {
		for _, o := range ops[i] {
			totalCells += len(o.Cells) + o.IdleBefore
		}
		b.bfms = append(b.bfms, catg.NewInitiatorBFM(sm, p, ops[i]))
		mon := catg.NewMonitor(sm, p, i, true, catg.NodeRouter(cfg, i))
		res := b.res
		mon.OnComplete(func(tr *stbus.Transaction) {
			res.Latencies = append(res.Latencies, tr.Latency())
		})
		b.initMons = append(b.initMons, mon)
		b.checkers = append(b.checkers, catg.NewChecker(sm, p, cfg, true, catg.NodeRouter(cfg, i)))
	}
	if b.limit == 0 {
		b.limit = 2000 + totalCells*60
	}
	for tg, p := range dut.TgtPorts() {
		catg.NewTargetBFM(sm, p, test.targetFor(cfg, tg), catg.TargetSeed(seed, tg))
		b.tgtMons = append(b.tgtMons, catg.NewMonitor(sm, p, tg, false, nil))
		b.checkers = append(b.checkers, catg.NewChecker(sm, p, cfg, false, nil))
	}
	b.sb = catg.NewScoreboard(cfg, b.initMons, b.tgtMons)
	b.cov = catg.NewCoverageModel(cfg, test.trafficFor(cfg, 0))
	b.cov.SubscribeMonitors(sm, b.initMons)
	var sigs []*sim.Signal
	if opt.RecordWave || opt.AlignWith != nil {
		sigs = portSignals(dut)
	}
	if opt.RecordWave {
		b.rc = vcd.NewRecorder("tb")
		for _, s := range sigs {
			b.rc.Declare(s)
		}
		b.rc.Attach(sm)
	}
	if opt.AlignWith != nil {
		b.obs, err = stba.NewObserver(opt.AlignWith, sigs)
		if err != nil {
			return nil, err
		}
		b.obs.Attach(sm)
	}
	return b, nil
}

// portSignals returns the DUT's port signals in port order, initiator ports
// first: what the waveform and alignment taps trace.
func portSignals(d DUT) []*sim.Signal {
	var sigs []*sim.Signal
	for _, p := range d.InitPorts() {
		sigs = append(sigs, p.Signals()...)
	}
	for _, p := range d.TgtPorts() {
		sigs = append(sigs, p.Signals()...)
	}
	return sigs
}

// done reports whether every initiator BFM has drained its program.
func (b *benchInst) done() bool {
	for _, bf := range b.bfms {
		if !bf.Done() {
			return false
		}
	}
	return true
}

// step runs the view's next cycle and reports true, or reports false once the
// view has stopped; a failed cycle samples nothing. Before draining it
// checks done ahead of every cycle and stops at the cycle limit;
// a Step error there ends the run undrained, not in error. Once drained it
// runs the tail, where a Step error is the run's error. The context is
// polled every 64 drain checks; a cancelled run ends with an error wrapping
// ctx.Err().
func (b *benchInst) step() bool {
	if b.stopped {
		return false
	}
	if b.tail < 0 {
		if b.polls++; b.polls&63 == 0 && b.ctx.Err() != nil {
			b.stopped = true
			b.err = fmt.Errorf("core: %s %s seed %d: %w", b.res.View, b.res.Test, b.res.Seed, b.ctx.Err())
			return false
		}
		if !b.done() {
			if b.ran >= b.limit {
				b.stopped = true
				return false
			}
			b.ran++
			if b.sm.Step() != nil {
				b.stopped = true
				return false
			}
			return true
		}
		b.res.Drained, b.tail = true, tailCycles
	}
	if b.tail == 0 {
		b.stopped = true
		return false
	}
	b.tail--
	if err := b.sm.Step(); err != nil {
		b.stopped, b.err = true, err
		return false
	}
	return true
}

// finish finalises the report of a stopped run from the bench observers.
func (b *benchInst) finish() (*RunResult, error) {
	if b.err != nil {
		return nil, b.err
	}
	res := b.res
	res.Cycles = b.sm.Cycle()
	for _, c := range b.checkers {
		res.Violations = append(res.Violations, c.Violations...)
	}
	res.ScoreErrors = b.sb.Check()
	res.Coverage = b.cov.Group
	res.CodeCov = b.dut.CodeCoverage()
	for _, m := range b.initMons {
		res.Transactions += len(m.CompletedTxs())
	}
	if b.rc != nil {
		res.Wave = b.rc.Recording()
	}
	if b.obs != nil {
		res.Alignment = b.obs.Report()
	}
	if b.kstats {
		res.Kernel = b.sm.Stats()
	}
	return res, nil
}

// RunTestCtx is RunTest under a cancellation context: the run loop polls ctx
// every few cycles and aborts with ctx's error, so a served job can be
// cancelled mid-simulation, not just between units.
func RunTestCtx(ctx context.Context, cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions) (*RunResult, error) {
	cfg = cfg.WithDefaults()
	b, err := startView(ctx, cfg, view, test, seed, opt, trafficOps(cfg, test, seed))
	if err != nil {
		return nil, err
	}
	for b.step() {
	}
	return b.finish()
}

// PairResult is the outcome of running the same (test, seed) on both views
// and comparing them — the complete common-flow iteration of Figure 4.
type PairResult struct {
	RTL, BCA *RunResult
	// Alignment is the per-port STBA comparison of the two views' ports.
	Alignment *stba.Report
	// CoverageEqual reports whether functional coverage matched bin by bin.
	CoverageEqual bool
	CoverageDiff  string
}

// SignedOff reports the paper's sign-off criterion: both runs pass their
// checks, functional coverage is identical, and every port is at or above
// the 99 % alignment rate.
func (p *PairResult) SignedOff() bool {
	return p.RTL.Passed() && p.BCA.Passed() && p.CoverageEqual && p.Alignment.AllPass()
}

// RunPair runs one (test, seed) against the RTL and the BCA views, then
// performs the bus-accurate comparison and the coverage-equality check.
func RunPair(cfg nodespec.Config, test Test, seed int64, bugs bca.Bugs) (*PairResult, error) {
	return RunPairOpt(cfg, test, seed, RunOptions{Bugs: bugs})
}

// RunPairOpt is RunPair with full run options. The two views run in lockstep
// and the bus-accurate comparison streams: an online observer on the BCA
// view compares its ports with the RTL view's at every cycle, so no waveform
// is recorded — RecordWave is honoured as given, purely as an artifact
// request.
func RunPairOpt(cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	return RunPairCtx(context.Background(), cfg, test, seed, opt)
}

// RunPairCtx is RunPairOpt under a cancellation context, threaded through
// both view runs. Both views' initiators replay the same generated traffic.
// Errors come back as if the views ran one after the other: an RTL error
// first, then a BCA one.
func RunPairCtx(ctx context.Context, cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	cfg = cfg.WithDefaults()
	ops := trafficOps(cfg, test, seed)
	viewOpt := RunOptions{RecordWave: opt.RecordWave, KernelStats: opt.KernelStats, Bugs: opt.Bugs}
	r, err := startView(ctx, cfg, RTLView, test, seed, viewOpt, ops)
	if err != nil {
		return nil, fmt.Errorf("core: RTL run: %w", err)
	}
	ref := stba.NewLive(portSignals(r.dut))
	ref.Attach(r.sm)
	b, berr := startView(ctx, cfg, BCAView, test, seed, viewOpt, ops)
	var obs *stba.Observer
	if berr == nil {
		obs, berr = stba.NewLiveObserver(ref, portSignals(b.dut))
	}
	if berr == nil {
		obs.Attach(b.sm)
	}

	// Each round runs one RTL cycle, then one BCA cycle, so the observer
	// compares the views at the same cycle. A BCA that fails still lets the
	// RTL view finish, because the RTL error is reported first.
	bcaOn := berr == nil
	for rtlOn := true; (rtlOn || bcaOn) && r.err == nil; {
		rtlOn = r.step()
		bcaOn = bcaOn && b.step()
	}
	rres, err := r.finish()
	if err != nil {
		return nil, fmt.Errorf("core: RTL run: %w", err)
	}
	if berr != nil {
		return nil, fmt.Errorf("core: BCA run: %w", berr)
	}
	bres, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("core: BCA run: %w", err)
	}
	pr := &PairResult{RTL: rres, BCA: bres, Alignment: obs.Report()}
	pr.CoverageEqual, pr.CoverageDiff = rres.Coverage.EqualHits(bres.Coverage)
	return pr, nil
}

// RunPairLanes runs RunPairCtx for each seed in turn and returns one
// PairResult per seed, index-matched to seeds. It keeps the multi-seed entry
// point perfledger's seed-group probe calls.
func RunPairLanes(ctx context.Context, cfg nodespec.Config, test Test, seeds []int64, opt RunOptions) ([]*PairResult, error) {
	prs := make([]*PairResult, len(seeds))
	for i, seed := range seeds {
		pr, err := RunPairCtx(ctx, cfg, test, seed, opt)
		if err != nil {
			return nil, err
		}
		prs[i] = pr
	}
	return prs, nil
}
