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
	ops := trafficOps(cfg, test, seed)
	inits := make([]*catg.Initiator, len(ops))
	for i := range ops {
		inits[i] = catg.NewInitiator(ops[i])
	}
	tgts := make([]*catg.Target, cfg.NumTgt)
	for t := range tgts {
		tgts[t] = catg.NewTarget(cfg.Port, test.targetFor(cfg, t), catg.TargetSeed(seed, t))
	}
	b, _, err := startPorts(ctx, cfg, test, seed, bugs, inits, tgts, false)
	if err != nil {
		return nil, err
	}
	sched := catg.NewSchedule(test.MaxCycles, ops, inits)
	b.sched = &sched
	b.env = catg.NewEnv(cfg, test.trafficFor(cfg, 0), b.names)
	return b.run()
}

// startPorts builds the ports bench around the BCA engine, presenting the
// drives of the stimulus cores inits and tgts, with no schedule and no env:
// RunPorts gives it its own, RunPairCtx the RTL view's while the two views
// share the stimulus. record captures the port values as the wrapped node's
// RecordWave would. cfg must already have its defaults applied.
func startPorts(ctx context.Context, cfg nodespec.Config, test Test, seed int64, bugs bca.Bugs, inits []*catg.Initiator, tgts []*catg.Target, record bool) (*benchInst, *portsBench, error) {
	eng, err := bca.NewEngine(cfg, bugs)
	if err != nil {
		return nil, nil, err
	}
	nI, nT := cfg.NumInit, cfg.NumTgt
	p := &portsBench{
		eng: eng, port: cfg.Port, inits: inits, tgts: tgts,
		in: bca.NewInputs(cfg), prevIn: bca.NewInputs(cfg),
		cells: make([]stbus.Cell, nI), prevCells: make([]stbus.Cell, nI),
		offers: make([]stbus.RespCell, nT), prevOffers: make([]stbus.RespCell, nT),
		samples: make([]catg.PortSample, nI+nT),
	}
	// The ports take the wrapped node's port names, so the reports name
	// ports as the signal bench's do.
	names := make([]string, 0, nI+nT)
	for i := 0; i < nI; i++ {
		names = append(names, fmt.Sprintf("%s.init%d", cfg.Name, i))
	}
	for t := 0; t < nT; t++ {
		names = append(names, fmt.Sprintf("%s.tgt%d", cfg.Name, t))
	}
	b := &benchInst{
		ctx: ctx, clk: p, samples: p.samples, names: names,
		res: &RunResult{RunRecord: RunRecord{Test: test.Name, Seed: seed, View: BCAView}, DUTIn: cfg},
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
	return b, p, nil
}

// portsBench is the BCA engine wired to the CATG cores through function
// calls: the clock RunPorts steps in place of a signal kernel.
//
// Each cycle it steps every core that has not stepped that edge yet and
// presents what the core drives. In a sign-off pair it presents the RTL
// view's cores, which the RTL view's BFMs have stepped on the edge already,
// until the views split (RunPairCtx): a core, the engine and an env are
// deterministic functions of their inputs, and those inputs are equal while
// the views' samples are. Meanwhile only the wires the engine drives can
// differ from the RTL view's samples, so the bench compares just those
// (ref).
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

	// ref holds the RTL view's samples of the cycle while the views share
	// the stimulus, nil otherwise. agreed reports that the last cycle's
	// engine outputs matched ref on every port; the bench then left samples
	// as they were unless it records.
	ref    []catg.PortSample
	agreed bool

	// rc records the ports' wire values, vals holding a cycle's, when the
	// run records its waveform.
	rc   *vcd.Recorder
	vals []sim.Bits
}

// Step runs one cycle: the posedge (the cores step, then the engine
// commits), the settle (the engine plans grants) and the cycle end (each
// port's sample, as its wires would read, unless it matched ref).
func (p *portsBench) Step() error {
	p.in, p.prevIn = p.prevIn, p.in
	p.cells, p.prevCells = p.prevCells, p.cells
	p.offers, p.prevOffers = p.prevOffers, p.offers
	in, prevIn, out := p.in, p.prevIn, p.eng.Out()
	for i, d := range p.inits {
		if d.Edges() == p.cycle {
			d.Step(prevIn.Req[i] && out.Gnt[i], out.InitRsp[i] && prevIn.RGnt[i] && out.InitRC[i].EOP)
		}
		p.cells[i], in.Req[i] = d.Out()
		in.Addr[i], in.EOP[i], in.Lck[i], in.Pri[i] = p.cells[i].Addr, p.cells[i].EOP, p.cells[i].Lck, p.cells[i].Pri
		in.RGnt[i] = true
	}
	for t, m := range p.tgts {
		if m.Edges() == p.cycle {
			m.Step(out.TgtReq[t] && prevIn.TgtGnt[t], out.TgtCell[t], prevIn.TgtRResp[t] && out.RGnt[t])
		}
		p.offers[t], in.TgtRResp[t], in.TgtGnt[t] = m.Out()
		in.TgtRSrc[t] = p.offers[t].Src
	}
	cells, offers := p.prevCells, p.prevOffers
	p.eng.Commit(prevIn, func(i int) stbus.Cell { return cells[i] }, func(t int) stbus.RespCell { return offers[t] })
	p.eng.Plan(in)
	p.agreed = p.ref != nil && p.matchesRef()
	if !p.agreed || p.rc != nil {
		nI := len(p.inits)
		for i := range p.inits {
			p.samples[i] = catg.Sample(p.port, in.Req[i], out.Gnt[i], p.cells[i], out.InitRsp[i], in.RGnt[i], out.InitRC[i])
		}
		for t := range p.tgts {
			p.samples[nI+t] = catg.Sample(p.port, out.TgtReq[t], in.TgtGnt[t], out.TgtCell[t], in.TgtRResp[t], out.RGnt[t], p.offers[t])
		}
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

// matchesRef reports whether the engine drives this cycle what ref holds on
// every port: gnt and the response channel of the initiator ports, the
// request channel and r_gnt of the target ports.
func (p *portsBench) matchesRef() bool {
	out, nI := p.eng.Out(), len(p.inits)
	for i := range p.inits {
		if !p.ref[i].InitiatorSideEqual(p.port, out.Gnt[i], out.InitRsp[i], out.InitRC[i]) {
			return false
		}
	}
	for t := range p.tgts {
		if !p.ref[nI+t].TargetSideEqual(p.port, out.TgtReq[t], out.TgtCell[t], out.RGnt[t]) {
			return false
		}
	}
	return true
}

// copyCores gives the bench copies of the cores it presents, which it steps
// from then on, and stops comparing with ref.
func (p *portsBench) copyCores() {
	inits, tgts := make([]*catg.Initiator, len(p.inits)), make([]*catg.Target, len(p.tgts))
	for i, d := range p.inits {
		inits[i] = d.Copy()
	}
	for t, m := range p.tgts {
		tgts[t] = m.Copy()
	}
	p.inits, p.tgts, p.ref = inits, tgts, nil
}

// Cycle returns the number of cycles run.
func (p *portsBench) Cycle() uint64 { return p.cycle }
