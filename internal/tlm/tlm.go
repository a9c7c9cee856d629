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
// Run drives the BCA engine with function-call harnesses that replicate the
// CATG BFMs' cycle behaviour exactly (same generated stimulus, same seeded
// target timing, same transaction assembly, scoreboard and functional-
// coverage model), so the transaction-level bench reports results
// *identical* to the wrapped signal-level bench — at standalone-engine
// speed. Experiment E7 measures both properties.
package tlm

import (
	"fmt"
	"math/rand"

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

// tlmDriver replicates catg.InitiatorBFM at function-call level.
type tlmDriver struct {
	ops     []catg.Op
	opIdx   int
	cellIdx int
	idle    int
	started bool
	sent    int
	resps   int

	presenting bool
	cell       stbus.Cell
}

// tick is the posedge update: fired/prevReq/respEOPFired describe the
// previous cycle, exactly what the signal BFM reads from the wires.
func (d *tlmDriver) tick(fired, prevReq, respEOPFired bool) {
	if fired {
		cur := d.ops[d.opIdx]
		d.cellIdx++
		if d.cellIdx == len(cur.Cells) {
			d.sent++
			d.opIdx++
			d.cellIdx = 0
			if d.opIdx < len(d.ops) {
				d.idle = d.ops[d.opIdx].IdleBefore
			}
		}
	} else if d.started && d.idle > 0 && !prevReq {
		d.idle--
	}
	if !d.started {
		d.started = true
		if d.opIdx < len(d.ops) {
			d.idle = d.ops[d.opIdx].IdleBefore
		}
	}
	d.presenting = d.opIdx < len(d.ops) && d.idle == 0
	if d.presenting {
		d.cell = d.ops[d.opIdx].Cells[d.cellIdx]
	} else {
		d.cell = stbus.Cell{}
	}
	if respEOPFired {
		d.resps++
	}
}

func (d *tlmDriver) done() bool { return d.opIdx >= len(d.ops) && d.resps >= d.sent }

// tlmMem replicates catg.TargetBFM at function-call level, consuming its
// random stream in the identical order.
type tlmMem struct {
	cfg  catg.TargetConfig
	port stbus.PortConfig
	rng  *rand.Rand
	mem  stbus.SparseMem

	cur   []stbus.Cell
	queue []*tlmPkt
	gap   int
	cyc   uint64

	offering bool
	offer    stbus.RespCell
	gnt      bool
}

type tlmPkt struct {
	resp    []stbus.RespCell
	readyAt uint64
	idx     int
}

func (m *tlmMem) tick(reqFired bool, cell stbus.Cell, respFired bool) {
	m.cyc++
	if reqFired {
		m.cur = append(m.cur, cell)
		if m.cfg.GntGapPct > 0 && m.rng.Intn(100) < m.cfg.GntGapPct {
			m.gap = 1 + m.rng.Intn(3)
		}
		if m.cur[len(m.cur)-1].EOP {
			m.queue = append(m.queue, m.serve(m.cur))
			m.cur = nil
		}
	} else if m.gap > 0 {
		m.gap--
	}
	if respFired {
		h := m.queue[0]
		h.idx++
		if h.idx == len(h.resp) {
			m.queue = m.queue[1:]
		}
	}
	if len(m.queue) > 0 && m.cyc >= m.queue[0].readyAt {
		m.offering = true
		m.offer = m.queue[0].resp[m.queue[0].idx]
	} else {
		m.offering = false
		m.offer = stbus.RespCell{}
	}
	m.gnt = len(m.queue) < m.cfg.QueueDepth && m.gap == 0
}

func (m *tlmMem) serve(cells []stbus.Cell) *tlmPkt {
	first := cells[0]
	op, addr := first.Opc, first.Addr
	lat := m.cfg.MinLatency
	if m.cfg.MaxLatency > m.cfg.MinLatency {
		lat += m.rng.Intn(m.cfg.MaxLatency - m.cfg.MinLatency + 1)
	}
	pk := &tlmPkt{readyAt: m.cyc + uint64(lat)}
	var rd []byte
	if op.IsLoad() {
		rd = make([]byte, op.SizeBytes())
		m.mem.Read(addr, rd)
	}
	if op.HasWriteData() {
		m.mem.Write(addr, stbus.ExtractWriteData(m.port.Endian, cells, m.port.BusBytes()))
	}
	resp, err := stbus.BuildResponse(m.port.Type, m.port.Endian, op, addr, rd, m.port.BusBytes(),
		first.TID, first.Src, false)
	if err != nil {
		resp = []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: first.TID, Src: first.Src}}
	}
	pk.resp = resp
	return pk
}

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

	drivers := make([]*tlmDriver, nI)
	totalCells := 0
	for i := range drivers {
		ops := catg.GenerateOps(cfg, traffic(i), i, seed)
		for _, o := range ops {
			totalCells += len(o.Cells) + o.IdleBefore
		}
		drivers[i] = &tlmDriver{ops: ops}
	}
	mems := make([]*tlmMem, nT)
	for t := range mems {
		mems[t] = &tlmMem{
			cfg:  target(t).WithDefaults(),
			port: cfg.Port,
			rng:  rand.New(rand.NewSource(catg.TargetSeed(seed, t))),
		}
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

	in := bca.NewInputs(cfg)
	prevIn := bca.NewInputs(cfg)
	out := eng.Out()
	// Previous-cycle snapshots, the "wires" of the function-call bench.
	prevGnt := make([]bool, nI)
	prevRGnt := make([]bool, nT)
	prevDrvCell := make([]stbus.Cell, nI)
	prevTgtReq := make([]bool, nT)
	prevTgtCell := make([]stbus.Cell, nT)
	prevInitRsp := make([]bool, nI)
	prevInitRC := make([]stbus.RespCell, nI)
	prevMemOffering := make([]bool, nT)
	prevMemOffer := make([]stbus.RespCell, nT)

	allDone := func() bool {
		for _, d := range drivers {
			if !d.done() {
				return false
			}
		}
		return true
	}
	cyc := uint64(0)
	for ; !allDone(); cyc++ {
		if cyc > maxCycles {
			res.Cycles = cyc
			res.ScoreErrors = sb.Check()
			return res, nil // Drained stays false
		}
		// ---- posedge: engine commit + harness sequential updates ----
		if cyc > 0 {
			eng.Commit(prevIn,
				func(i int) stbus.Cell { return prevDrvCell[i] },
				func(t int) stbus.RespCell { return prevMemOffer[t] })
		}
		for i, d := range drivers {
			fired := prevIn.Req[i] && prevGnt[i]
			respEOP := prevInitRsp[i] && prevIn.RGnt[i] && prevInitRC[i].EOP
			d.tick(fired, prevIn.Req[i], respEOP)
		}
		for t, m := range mems {
			reqFired := prevTgtReq[t] && prevIn.TgtGnt[t]
			respFired := prevMemOffering[t] && prevRGnt[t]
			m.tick(reqFired, prevTgtCell[t], respFired)
		}
		// ---- settle: present inputs, plan grants ----
		for i, d := range drivers {
			in.Req[i] = d.presenting
			in.Addr[i] = d.cell.Addr
			in.EOP[i] = d.cell.EOP
			in.Lck[i] = d.cell.Lck
			in.Pri[i] = d.cell.Pri
			in.RGnt[i] = true
		}
		for t, m := range mems {
			in.TgtGnt[t] = m.gnt
			in.TgtRResp[t] = m.offering
			in.TgtRSrc[t] = m.offer.Src
		}
		eng.Plan(in)
		// ---- cycle-end observation (monitors + coverage) ----
		reqN := 0
		for i, d := range drivers {
			if in.Req[i] {
				reqN++
			}
			if in.Req[i] && out.Gnt[i] {
				initAsm[i].ReqCell(cyc, d.cell)
			}
			if out.InitRsp[i] && in.RGnt[i] {
				initAsm[i].RespCell(cyc, out.InitRC[i])
			}
		}
		for t, m := range mems {
			if out.TgtReq[t] && in.TgtGnt[t] {
				tgtAsm[t].ReqCell(cyc, out.TgtCell[t])
			}
			if m.offering && out.RGnt[t] {
				tgtAsm[t].RespCell(cyc, m.offer)
			}
		}
		cov.SampleContention(reqN)
		// ---- snapshot the cycle for the next posedge ----
		copyInputs(prevIn, in)
		copy(prevGnt, out.Gnt)
		copy(prevRGnt, out.RGnt)
		for i, d := range drivers {
			prevDrvCell[i] = d.cell
		}
		copy(prevTgtReq, out.TgtReq)
		copy(prevTgtCell, out.TgtCell)
		copy(prevInitRsp, out.InitRsp)
		copy(prevInitRC, out.InitRC)
		for t, m := range mems {
			prevMemOffering[t] = m.offering
			prevMemOffer[t] = m.offer
		}
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

func copyInputs(dst, src *bca.Inputs) {
	copy(dst.Req, src.Req)
	copy(dst.Addr, src.Addr)
	copy(dst.EOP, src.EOP)
	copy(dst.Lck, src.Lck)
	copy(dst.Pri, src.Pri)
	copy(dst.RGnt, src.RGnt)
	copy(dst.TgtGnt, src.TgtGnt)
	copy(dst.TgtRResp, src.TgtRResp)
	copy(dst.TgtRSrc, src.TgtRSrc)
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
