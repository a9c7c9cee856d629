// Package tlm implements the paper's future-work items (Section 6): the
// "ports approach" — plugging the BCA model into the verification
// environment *directly*, without the signal-level wrapper stack — and the
// resulting transaction-level-modelling (TLM) verification phase.
//
// The paper observes that routing the SystemC model through the VHDL wrapper
// forfeits its simulation speed, and anticipates that "the next version of
// CATG supporting ports approach will make possible a direct interfacing of
// SystemC simulator with Specman's environment. This should enhance
// simulation performance."
//
// Run drives the BCA engine from function calls through the CATG cores the
// signal-level BFMs step (catg.Initiator and catg.Target: same generated
// stimulus, same seeded target timing), runs by the same catg.Schedule and
// observes it with the same catg.Env (assemblers, protocol checkers,
// scoreboard and functional-coverage model), so the transaction-level bench
// reports results identical to the wrapped signal-level bench by
// construction — at standalone-engine speed. Experiment E7 measures both
// properties.
package tlm

import (
	"fmt"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Result summarises one transaction-level bench run.
type Result struct {
	Cycles       uint64
	Drained      bool
	Transactions int
	Violations   []catg.Violation
	ScoreErrors  []string
	Coverage     *coverage.Group
}

// Passed reports whether the run drained with no protocol violation and a
// clean scoreboard.
func (r *Result) Passed() bool {
	return r.Drained && len(r.Violations) == 0 && len(r.ScoreErrors) == 0
}

// Run executes one (test, seed) against the BCA engine through the ports
// approach. The test's traffic and target parameters are resolved exactly as
// the signal-level bench resolves them, and the run follows the same
// catg.Schedule, so a model yields the transactions, violations, scoreboard
// results, functional coverage and cycle count the wrapped bench reports.
func Run(cfg nodespec.Config, traffic func(initIdx int) catg.TrafficConfig,
	target func(tgtIdx int) catg.TargetConfig, seed int64, bugs bca.Bugs, maxCycles uint64) (*Result, error) {
	cfg = cfg.WithDefaults()
	eng, err := bca.NewEngine(cfg, bugs)
	if err != nil {
		return nil, err
	}
	nI, nT := cfg.NumInit, cfg.NumTgt

	ops := make([][]catg.Op, nI)
	inits := make([]*catg.Initiator, nI)
	for i := range inits {
		ops[i] = catg.GenerateOps(cfg, traffic(i), i, seed)
		inits[i] = catg.NewInitiator(ops[i])
	}
	tgts := make([]*catg.Target, nT)
	for t := range tgts {
		tgts[t] = catg.NewTarget(cfg.Port, target(t), catg.TargetSeed(seed, t))
	}
	sched := catg.NewSchedule(int(maxCycles), ops, inits)

	// The observers of the signal-level bench, under the wrapped node's port
	// names, fed one sample per port per cycle.
	names := make([]string, 0, nI+nT)
	for i := 0; i < nI; i++ {
		names = append(names, fmt.Sprintf("%s.init%d", cfg.Name, i))
	}
	for t := 0; t < nT; t++ {
		names = append(names, fmt.Sprintf("%s.tgt%d", cfg.Name, t))
	}
	env := catg.NewEnv(cfg, traffic(0), names)
	samples := make([]catg.PortSample, nI+nT)

	// The function-call "wires": this cycle's harness drives (in, cells,
	// offers) and the last cycle's (prevIn, prevCells, prevOffers). At each
	// posedge the cores step on the last cycle's handshake — its drives and
	// the engine's outputs, which hold until this cycle's Commit and Plan —
	// and the engine then commits the last cycle's drives. As in the wrapped
	// node, the engine plans on the idle inputs before the first edge and
	// commits on every edge.
	in, prevIn := bca.NewInputs(cfg), bca.NewInputs(cfg)
	cells, prevCells := make([]stbus.Cell, nI), make([]stbus.Cell, nI)
	offers, prevOffers := make([]stbus.RespCell, nT), make([]stbus.RespCell, nT)
	out := eng.Out()
	cellOf := func(i int) stbus.Cell { return prevCells[i] }
	offerOf := func(t int) stbus.RespCell { return prevOffers[t] }
	eng.Plan(in)

	res := &Result{}
	for ; sched.Next(); res.Cycles++ {
		// ---- posedge: the cores step, then the engine commits ----
		in, prevIn = prevIn, in
		cells, prevCells = prevCells, cells
		offers, prevOffers = prevOffers, offers
		for i, d := range inits {
			granted := prevIn.Req[i] && out.Gnt[i]
			respEOP := out.InitRsp[i] && prevIn.RGnt[i] && out.InitRC[i].EOP
			cells[i], in.Req[i] = d.Step(granted, respEOP)
			in.Addr[i], in.EOP[i], in.Lck[i], in.Pri[i] = cells[i].Addr, cells[i].EOP, cells[i].Lck, cells[i].Pri
			in.RGnt[i] = true
		}
		for t, m := range tgts {
			reqFired := out.TgtReq[t] && prevIn.TgtGnt[t]
			respFired := prevIn.TgtRResp[t] && out.RGnt[t]
			offers[t], in.TgtRResp[t], in.TgtGnt[t] = m.Step(reqFired, out.TgtCell[t], respFired)
			in.TgtRSrc[t] = offers[t].Src
		}
		eng.Commit(prevIn, cellOf, offerOf)
		// ---- settle: plan grants ----
		eng.Plan(in)
		// ---- cycle end: each port's sample, as its wires would read ----
		for i := range inits {
			samples[i] = sample(in.Req[i], out.Gnt[i], cells[i], out.InitRsp[i], in.RGnt[i], out.InitRC[i])
		}
		for t := range tgts {
			samples[nI+t] = sample(out.TgtReq[t], in.TgtGnt[t], out.TgtCell[t], in.TgtRResp[t], out.RGnt[t], offers[t])
		}
		env.Observe(samples)
	}
	res.Drained = sched.Drained
	res.Transactions = env.Transactions()
	res.Violations = env.Violations()
	res.ScoreErrors = env.Scoreboard.Check()
	res.Coverage = env.Coverage.Group
	return res, nil
}

// sample is one cycle of a port whose lines carry these values: the cells
// only while their transfer is requested or fires, as catg.SamplePort reads.
func sample(req, gnt bool, cell stbus.Cell, rreq, rgnt bool, resp stbus.RespCell) catg.PortSample {
	s := catg.PortSample{Req: req, Gnt: gnt, RReq: rreq, RGnt: rgnt}
	if req {
		s.Cell = cell
	}
	if s.RespFire() {
		s.Resp = resp
	}
	return s
}

// RunTest adapts a core-style test description (traffic and target resolved
// per port) without importing internal/core (which would create an import
// cycle through the experiments).
func RunTest(cfg nodespec.Config, trafficOne catg.TrafficConfig,
	targetOne catg.TargetConfig, seed int64, bugs bca.Bugs) (*Result, error) {
	return Run(cfg,
		func(int) catg.TrafficConfig { return trafficOne },
		func(int) catg.TargetConfig { return targetOne },
		seed, bugs, 0)
}
