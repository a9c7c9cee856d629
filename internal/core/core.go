// Package core assembles the paper's contribution: the Common Reusable
// Verification Environment. One environment — harnesses, monitors, protocol
// checkers, scoreboard, functional coverage (all from internal/catg) — into
// which either design view plugs unchanged:
//
//	DUT (RTL or BCA)  ←→  CATG bench  →  reports (+ waveform recordings)
//
// RunTest executes one (test file, seed) pair against one view; RunPorts
// runs the BCA engine in the same environment through function calls, the
// "ports approach" of the paper's Section 6. RunPair executes the same pair
// against both views in lockstep — the RTL view on the signal kernel, the
// BCA view on the ports bench — streams the STBus Analyzer comparison of
// their port samples cycle by cycle (waveforms are opt-in artifacts, not
// the comparison medium) and checks functional-coverage equality — the
// full flow of the paper's Figures 4 and 5.
package core

import (
	"context"
	"fmt"
	"slices"

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
	// BCAView is the bus-cycle-accurate model: wrapped for the common bench
	// in a single-view run, on the ports bench in a pair.
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

// RunResult is the verification report of one (test, seed, view) run: the
// RunRecord the result cache stores, plus the configuration and the taps a
// cached run does not keep.
type RunResult struct {
	RunRecord
	DUTIn nodespec.Config
	// Wave is the compact binary waveform recording, captured when
	// RunOptions.RecordWave is set — the storable artifact that can re-serve
	// values or the text VCD on demand.
	Wave *vcd.Recording
	// Alignment is the streaming STBA report against RunOptions.AlignWith.
	Alignment *stba.Report
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

// benchInst is one fully wired bench+DUT instance and its run in progress:
// elaboration (startView for a signal view, startPorts for the ports
// bench), the run loop applied one cycle per call (step) and report
// collection (finish). Each cycle the clock leaves one sample per port in
// samples. RunTestCtx and RunPorts step one instance to the end, its env
// observing every sample (run); RunPairCtx steps two in lockstep and
// decides which env observes what.
type benchInst struct {
	ctx     context.Context
	clk     clock
	sm      *sim.Simulator // the signal kernel; nil on the ports bench
	res     *RunResult
	env     *catg.Env
	samples []catg.PortSample // the last cycle run, initiator ports first
	names   []string          // the ports' names, in samples' order
	sched   catg.Schedule
	rc      *vcd.Recorder
	obs     *stba.Observer
	kstats  bool // collect the kernel profile

	// Run state: drain checks made (the context is polled every 64th), and
	// whether and how the run ended.
	polls   int
	stopped bool
	err     error
}

// clock runs a bench one cycle per Step, after which the bench's samples
// hold the cycle's port samples: a signal kernel (kernelClock), or the
// ports bench.
type clock interface {
	Step() error
	Cycle() uint64
}

// kernelClock runs a signal view one kernel cycle per Step and then reads
// each DUT port once with catg.SamplePort.
type kernelClock struct {
	*sim.Simulator
	ports   []*stbus.Port
	samples []catg.PortSample
}

func (k kernelClock) Step() error {
	if err := k.Simulator.Step(); err != nil {
		return err
	}
	for i, p := range k.ports {
		k.samples[i] = catg.SamplePort(p)
	}
	return nil
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
// common environment around the DUT: BFMs driven by ops, the observers of
// catg.Env and whichever waveform/alignment taps the options request. cfg
// must already have its defaults applied.
func startView(ctx context.Context, cfg nodespec.Config, view View, test Test, seed int64, opt RunOptions, ops [][]catg.Op) (*benchInst, error) {
	sm := sim.New()
	sm.Timing = opt.KernelStats
	b := &benchInst{
		ctx: ctx, sm: sm, kstats: opt.KernelStats,
		res: &RunResult{RunRecord: RunRecord{Test: test.Name, Seed: seed, View: view}, DUTIn: cfg},
	}
	dut, err := BuildDUT(sim.Root(sm), cfg, view, opt.Bugs)
	if err != nil {
		return nil, err
	}
	b.res.CodeCov = dut.CodeCoverage()

	var bfms []*catg.InitiatorBFM
	for i, p := range dut.InitPorts() {
		bfms = append(bfms, catg.NewInitiatorBFM(sm, p, ops[i]))
	}
	for tg, p := range dut.TgtPorts() {
		catg.NewTargetBFM(sm, p, test.targetFor(cfg, tg), catg.TargetSeed(seed, tg))
	}
	b.sched = catg.NewSchedule(test.MaxCycles, ops, bfms)
	ps := ports(dut)
	b.samples = make([]catg.PortSample, len(ps))
	b.clk = kernelClock{sm, ps, b.samples}
	for _, p := range ps {
		b.names = append(b.names, p.Name)
	}
	b.env = catg.NewEnv(cfg, test.trafficFor(cfg, 0), b.names)
	var sigs []*sim.Signal
	if opt.RecordWave || opt.AlignWith != nil {
		sigs = portSignals(ps)
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

// ports returns the DUT's ports, initiator ports first.
func ports(d DUT) []*stbus.Port {
	return append(append([]*stbus.Port(nil), d.InitPorts()...), d.TgtPorts()...)
}

// portSignals returns the signals of ports in port order: what the
// waveform and alignment taps trace.
func portSignals(ports []*stbus.Port) []*sim.Signal {
	var sigs []*sim.Signal
	for _, p := range ports {
		sigs = append(sigs, p.Signals()...)
	}
	return sigs
}

// step runs the view's next cycle and reports true, or reports false once the
// view has stopped; a failed cycle samples nothing. The cycles run follow
// catg.Schedule. A Step error before the view drains ends the run
// undrained, not in error; in the tail it is the run's error. The context
// is polled every 64 drain checks; a cancelled run ends with an error
// wrapping ctx.Err().
func (b *benchInst) step() bool {
	if b.stopped {
		return false
	}
	if !b.sched.Drained {
		if b.polls++; b.polls&63 == 0 && b.ctx.Err() != nil {
			b.stopped = true
			b.err = fmt.Errorf("core: %s %s seed %d: %w", b.res.View, b.res.Test, b.res.Seed, b.ctx.Err())
			return false
		}
	}
	if !b.sched.Next() {
		b.stopped = true
		return false
	}
	if err := b.clk.Step(); err != nil {
		b.stopped = true
		if b.sched.Drained {
			b.err = err
		}
		return false
	}
	return true
}

// run steps the instance to the end, its env observing every cycle, and
// returns its report.
func (b *benchInst) run() (*RunResult, error) {
	for b.step() {
		b.env.Observe(b.samples)
	}
	return b.finish()
}

// finish finalises the report of a stopped run from the bench observers; a
// bench with no env of its own leaves the observers' reports to its caller.
func (b *benchInst) finish() (*RunResult, error) {
	if b.err != nil {
		return nil, b.err
	}
	res := b.res
	res.Cycles = b.clk.Cycle()
	res.Drained = b.sched.Drained
	if b.env != nil {
		res.Transactions = b.env.Transactions()
		res.Latencies = b.env.Latencies
		res.Violations = b.env.Violations()
		res.ScoreErrors = b.env.Scoreboard.Check()
		res.Coverage = b.env.Coverage.Group
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
	return b.run()
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

// RunPairOpt is RunPair with full run options. The RTL view runs on the
// signal kernel and the BCA view on the ports bench (RunPorts), in lockstep.
// Each cycle both views give one sample per port, and one comparison of
// the two sample vectors feeds the bus-accurate comparison and the
// observers; no waveform is recorded for it, and RecordWave is honoured as
// given, purely as an artifact request. KernelStats profiles the RTL view,
// the only one on a kernel.
func RunPairOpt(cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	return RunPairCtx(context.Background(), cfg, test, seed, opt)
}

// RunPairCtx is RunPairOpt under a cancellation context, threaded through
// both view runs. Both views' initiators replay the same generated traffic.
// Errors come back as if the views ran one after the other: an RTL error
// first, then a BCA one. (Both views validate the configuration alike, so
// the BCA view fails to elaborate only where the RTL view already has.)
//
// Each round runs one RTL kernel cycle, then one ports-bench cycle, and
// stba.Judge compares the two views' samples. While every sample agrees,
// only the RTL view's catg.Env observes: the BCA view's would see the same
// samples and reach the same state. At the first cycle they differ, or once
// one view has stopped while the other runs, a clone of the RTL env becomes
// the BCA view's, and from then on each env observes its own view. A BCA
// view that never left the RTL view's samples reports copies of the RTL
// env's reports.
func RunPairCtx(ctx context.Context, cfg nodespec.Config, test Test, seed int64, opt RunOptions) (*PairResult, error) {
	cfg = cfg.WithDefaults()
	ops := trafficOps(cfg, test, seed)
	r, err := startView(ctx, cfg, RTLView, test, seed, RunOptions{RecordWave: opt.RecordWave, KernelStats: opt.KernelStats}, ops)
	if err != nil {
		return nil, fmt.Errorf("core: RTL run: %w", err)
	}
	b, err := startPorts(ctx, cfg, test, seed, opt.Bugs, ops, opt.RecordWave)
	if err != nil {
		return nil, fmt.Errorf("core: BCA run: %w", err)
	}

	judge := stba.NewJudge(r.names)
	split := false // the BCA view observes through its own env
	for rtlOn, bcaOn := true, true; r.err == nil; {
		rtlOn = rtlOn && r.step()
		bcaOn = bcaOn && b.step()
		if !rtlOn && !bcaOn {
			break
		}
		agree := judge.Step(r.samples, b.samples, rtlOn, bcaOn)
		if !split && !(agree && rtlOn && bcaOn) {
			b.env, split = r.env.Clone(), true
		}
		if rtlOn {
			r.env.Observe(r.samples)
		}
		if split && bcaOn {
			b.env.Observe(b.samples)
		}
	}
	rres, err := r.finish()
	if err != nil {
		return nil, fmt.Errorf("core: RTL run: %w", err)
	}
	bres, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("core: BCA run: %w", err)
	}
	if !split {
		bres.Transactions = rres.Transactions
		bres.Latencies = slices.Clone(rres.Latencies)
		bres.Violations = slices.Clone(rres.Violations)
		bres.ScoreErrors = slices.Clone(rres.ScoreErrors)
		bres.Coverage = rres.Coverage.Clone()
	}
	pr := &PairResult{RTL: rres, BCA: bres, Alignment: judge.Report()}
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
