package core

import (
	"context"
	"fmt"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// RunPorts runs one (test, seed) against the BCA view through the paper's
// "ports approach" (Section 6): the next CATG "will make possible a direct
// interfacing of SystemC simulator with Specman's environment. This should
// enhance simulation performance." The BCA engine plugs into the common
// environment through function calls, with no wrapper and no signal kernel.
// The test is resolved as RunTestCtx resolves it, the same CATG cores
// present the stimulus and target timing, the same catg.Env observes and
// the same loop runs, so the result reports what the wrapped BCA view
// reports, with no code coverage, waveform, alignment or kernel profile.
// Sign-off runs the BCA half of every pair on this bench (RunPairCtx).
func RunPorts(ctx context.Context, cfg nodespec.Config, test Test, seed int64, bugs bca.Bugs) (*RunResult, error) {
	cfg = cfg.WithDefaults()
	b, err := startPorts(ctx, cfg, test, seed, bugs, trafficOps(cfg, test, seed), false)
	if err != nil {
		return nil, err
	}
	b.env = catg.NewEnv(cfg, test.trafficFor(cfg, 0), b.names)
	return b.run()
}

// startPorts builds the ports bench around the BCA engine, its initiators
// replaying ops, with no env: RunPorts gives it one, RunPairCtx a clone of
// the RTL view's when it needs one. record captures the port values as the
// wrapped node's RecordWave would. cfg must already have its defaults
// applied.
func startPorts(ctx context.Context, cfg nodespec.Config, test Test, seed int64, bugs bca.Bugs, ops [][]catg.Op, record bool) (*benchInst, error) {
	eng, err := bca.NewEngine(cfg, bugs)
	if err != nil {
		return nil, err
	}
	nI, nT := cfg.NumInit, cfg.NumTgt
	p := &portsBench{
		eng: eng, port: cfg.Port, in: bca.NewInputs(cfg), prevIn: bca.NewInputs(cfg),
		cells: make([]stbus.Cell, nI), prevCells: make([]stbus.Cell, nI),
		offers: make([]stbus.RespCell, nT), prevOffers: make([]stbus.RespCell, nT),
		samples: make([]catg.PortSample, nI+nT),
	}
	// The ports take the wrapped node's port names, so the reports name
	// ports as the signal bench's do.
	names := make([]string, 0, nI+nT)
	for i := range ops {
		p.inits = append(p.inits, catg.NewInitiator(ops[i]))
		names = append(names, fmt.Sprintf("%s.init%d", cfg.Name, i))
	}
	for t := 0; t < nT; t++ {
		p.tgts = append(p.tgts, catg.NewTarget(cfg.Port, test.targetFor(cfg, t), catg.TargetSeed(seed, t)))
		names = append(names, fmt.Sprintf("%s.tgt%d", cfg.Name, t))
	}
	b := &benchInst{
		ctx: ctx, clk: p, samples: p.samples, names: names,
		sched: catg.NewSchedule(test.MaxCycles, ops, p.inits),
		res:   &RunResult{RunRecord: RunRecord{Test: test.Name, Seed: seed, View: BCAView}, DUTIn: cfg},
	}
	if record {
		b.rc = vcd.NewRecorder("tb")
		widths := catg.WireWidths(cfg.Port)
		for _, name := range names {
			for w := range widths {
				b.rc.DeclareValue(name+"."+catg.WireName(w), widths[w])
			}
		}
		p.rc, p.vals = b.rc, make([]sim.Bits, len(names)*catg.NumWires)
	}
	eng.Plan(p.in)
	return b, nil
}

// portsBench is the BCA engine wired to the CATG cores through function
// calls: the clock RunPorts steps in place of a signal kernel.
type portsBench struct {
	eng   *bca.Engine
	port  stbus.PortConfig
	inits []*catg.Initiator
	tgts  []*catg.Target
	cycle uint64

	// The function-call "wires": this cycle's harness drives (in, cells,
	// offers) and the last cycle's (prevIn, prevCells, prevOffers). At each
	// posedge the cores step on the last cycle's handshake — its drives and
	// the engine's outputs, which hold until this cycle's Commit and Plan —
	// and the engine then commits the last cycle's drives. As in the wrapped
	// node, the engine plans on the idle inputs before the first edge and
	// commits on every edge.
	in, prevIn         *bca.Inputs
	cells, prevCells   []stbus.Cell
	offers, prevOffers []stbus.RespCell
	samples            []catg.PortSample

	// rc records the ports' wire values, vals holding a cycle's, when the
	// run records its waveform.
	rc   *vcd.Recorder
	vals []sim.Bits
}

// Step runs one cycle: the posedge (the cores step, then the engine
// commits), the settle (the engine plans grants) and the cycle end (each
// port's sample, as its wires would read).
func (p *portsBench) Step() error {
	p.in, p.prevIn = p.prevIn, p.in
	p.cells, p.prevCells = p.prevCells, p.cells
	p.offers, p.prevOffers = p.prevOffers, p.offers
	in, prevIn, out := p.in, p.prevIn, p.eng.Out()
	for i, d := range p.inits {
		granted := prevIn.Req[i] && out.Gnt[i]
		respEOP := out.InitRsp[i] && prevIn.RGnt[i] && out.InitRC[i].EOP
		p.cells[i], in.Req[i] = d.Step(granted, respEOP)
		in.Addr[i], in.EOP[i], in.Lck[i], in.Pri[i] = p.cells[i].Addr, p.cells[i].EOP, p.cells[i].Lck, p.cells[i].Pri
		in.RGnt[i] = true
	}
	for t, m := range p.tgts {
		reqFired := out.TgtReq[t] && prevIn.TgtGnt[t]
		respFired := prevIn.TgtRResp[t] && out.RGnt[t]
		p.offers[t], in.TgtRResp[t], in.TgtGnt[t] = m.Step(reqFired, out.TgtCell[t], respFired)
		in.TgtRSrc[t] = p.offers[t].Src
	}
	cells, offers := p.prevCells, p.prevOffers
	p.eng.Commit(prevIn, func(i int) stbus.Cell { return cells[i] }, func(t int) stbus.RespCell { return offers[t] })
	p.eng.Plan(in)
	nI := len(p.inits)
	for i := range p.inits {
		p.samples[i] = catg.Sample(p.port, in.Req[i], out.Gnt[i], p.cells[i], out.InitRsp[i], in.RGnt[i], out.InitRC[i])
	}
	for t := range p.tgts {
		p.samples[nI+t] = catg.Sample(p.port, out.TgtReq[t], in.TgtGnt[t], out.TgtCell[t], in.TgtRResp[t], out.RGnt[t], p.offers[t])
	}
	if p.rc != nil {
		for k := range p.samples {
			p.samples[k].Values(p.vals[k*catg.NumWires:])
		}
		p.rc.Values(p.cycle, p.vals)
	}
	p.cycle++
	return nil
}

// Cycle returns the number of cycles run.
func (p *portsBench) Cycle() uint64 { return p.cycle }
