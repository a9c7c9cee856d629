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
// stimulus, same seeded target timing) and observes it with the same
// transaction assembly, scoreboard and functional-coverage model, so the
// transaction-level bench reports results identical to the wrapped
// signal-level bench by construction — at standalone-engine speed.
// Experiment E7 measures both properties.
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
	ScoreErrors  []string
	Coverage     *coverage.Group
}

// Passed reports whether the run drained with a clean scoreboard.
func (r *Result) Passed() bool { return r.Drained && len(r.ScoreErrors) == 0 }

// Run executes one (test, seed) against the BCA engine through the ports
// approach. The test's traffic and target parameters are resolved exactly as
// the signal-level bench resolves them, so a clean model yields bit-identical
// transactions, scoreboard results and functional coverage.
func Run(cfg nodespec.Config, traffic func(initIdx int) catg.TrafficConfig,
	target func(tgtIdx int) catg.TargetConfig, seed int64, bugs bca.Bugs, maxCycles uint64) (*Result, error) {
	cfg = cfg.WithDefaults()
	eng, err := bca.NewEngine(cfg, bugs)
	if err != nil {
		return nil, err
	}
	nI, nT := cfg.NumInit, cfg.NumTgt

	inits := make([]*catg.Initiator, nI)
	totalCells := 0
	for i := range inits {
		ops := catg.GenerateOps(cfg, traffic(i), i, seed)
		for _, o := range ops {
			totalCells += len(o.Cells) + o.IdleBefore
		}
		inits[i] = catg.NewInitiator(ops)
	}
	tgts := make([]*catg.Target, nT)
	for t := range tgts {
		tgts[t] = catg.NewTarget(cfg.Port, target(t), catg.TargetSeed(seed, t))
	}
	if maxCycles == 0 {
		maxCycles = uint64(2000 + totalCells*60)
	}

	// Verification components: the same assemblers, scoreboard and coverage
	// model as the signal-level bench.
	initAsm := make([]*catg.TxAssembler, nI)
	tgtAsm := make([]*catg.TxAssembler, nT)
	sb := catg.NewScoreboard(cfg, nil, nil)
	cov := catg.NewCoverageModel(cfg, traffic(0))
	res := &Result{Coverage: cov.Group}
	for i := range initAsm {
		a := catg.NewTxAssembler(cfg.Port, i, true, catg.NodeRouter(cfg, i))
		a.OnComplete(sb.AddInitiatorTransaction)
		a.OnComplete(func(tr *stbus.Transaction) {
			cov.SampleTransaction(tr, a.LastCompletedSeq(), a.OldestPendingSeq())
			res.Transactions++
		})
		initAsm[i] = a
	}
	for t := range tgtAsm {
		a := catg.NewTxAssembler(cfg.Port, t, false, nil)
		a.OnComplete(sb.AddTargetTransaction)
		tgtAsm[t] = a
	}

	// The function-call "wires": this cycle's harness drives (in, cells,
	// offers) and the last cycle's (prevIn, prevCells, prevOffers). At each
	// posedge the cores step on the last cycle's handshake — its drives and
	// the engine's outputs, which hold until this cycle's Commit and Plan —
	// and the engine then commits the last cycle's drives.
	in, prevIn := bca.NewInputs(cfg), bca.NewInputs(cfg)
	cells, prevCells := make([]stbus.Cell, nI), make([]stbus.Cell, nI)
	offers, prevOffers := make([]stbus.RespCell, nT), make([]stbus.RespCell, nT)
	out := eng.Out()
	cellOf := func(i int) stbus.Cell { return prevCells[i] }
	offerOf := func(t int) stbus.RespCell { return prevOffers[t] }

	done := false
	cyc := uint64(0)
	for ; !done; cyc++ {
		if cyc > maxCycles {
			res.Cycles = cyc
			res.ScoreErrors = sb.Check()
			return res, nil // Drained stays false
		}
		// ---- posedge: the cores step, then the engine commits ----
		in, prevIn = prevIn, in
		cells, prevCells = prevCells, cells
		offers, prevOffers = prevOffers, offers
		done = true
		for i, d := range inits {
			granted := prevIn.Req[i] && out.Gnt[i]
			respEOP := out.InitRsp[i] && prevIn.RGnt[i] && out.InitRC[i].EOP
			var fin bool
			cells[i], in.Req[i], fin = d.Step(granted, respEOP)
			done = done && fin
			in.Addr[i], in.EOP[i], in.Lck[i], in.Pri[i] = cells[i].Addr, cells[i].EOP, cells[i].Lck, cells[i].Pri
			in.RGnt[i] = true
		}
		for t, m := range tgts {
			reqFired := out.TgtReq[t] && prevIn.TgtGnt[t]
			respFired := prevIn.TgtRResp[t] && out.RGnt[t]
			offers[t], in.TgtRResp[t], in.TgtGnt[t] = m.Step(reqFired, out.TgtCell[t], respFired)
			in.TgtRSrc[t] = offers[t].Src
		}
		if cyc > 0 {
			eng.Commit(prevIn, cellOf, offerOf)
		}
		// ---- settle: plan grants ----
		eng.Plan(in)
		// ---- cycle-end observation (monitors + coverage) ----
		reqN := 0
		for i := range inits {
			if in.Req[i] {
				reqN++
			}
			if in.Req[i] && out.Gnt[i] {
				initAsm[i].ReqCell(cyc, cells[i])
			}
			if out.InitRsp[i] && in.RGnt[i] {
				initAsm[i].RespCell(cyc, out.InitRC[i])
			}
		}
		for t := range tgts {
			if out.TgtReq[t] && in.TgtGnt[t] {
				tgtAsm[t].ReqCell(cyc, out.TgtCell[t])
			}
			if in.TgtRResp[t] && out.RGnt[t] {
				tgtAsm[t].RespCell(cyc, offers[t])
			}
		}
		cov.SampleContention(reqN)
	}
	res.Cycles = cyc
	res.Drained = true
	res.ScoreErrors = sb.Check()
	// The transaction-level bench has no signal-level protocol checkers, so
	// it enforces the end-of-test invariant directly: every issued request
	// must have been paired with a response (an unpaired request means the
	// DUT dropped or mis-tagged a response, e.g. the err-resp-tid-zero bug).
	for i, a := range initAsm {
		if n := a.PendingCount(); n > 0 {
			res.ScoreErrors = append(res.ScoreErrors,
				fmt.Sprintf("initiator %d: %d requests never received a matching response", i, n))
		}
	}
	return res, nil
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
