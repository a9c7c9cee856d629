package catg

import (
	"slices"

	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// PortSample is one cycle of a port as every observer sees it: the four
// handshake lines, the request cell while req is high and the response cell
// while r_req is high, each field as wide as its wire. An idle channel's
// wires read zero (stbus.Port.IdleReq and IdleResp), so a sample stands for
// the port's wires one for one: two samples are equal exactly when the
// wires carry equal values. The signal bench reads it off the wires with
// SamplePort; the ports bench (core.RunPorts) builds it from the engine's
// function-call values with Sample.
type PortSample struct {
	Req, Gnt, RReq, RGnt bool
	// Cell is the request cell, set only while Req is high.
	Cell stbus.Cell
	// Resp is the response cell, set only while RReq is high.
	Resp stbus.RespCell
}

// ReqFire reports whether a request cell transfers this cycle.
func (s *PortSample) ReqFire() bool { return s.Req && s.Gnt }

// RespFire reports whether a response cell transfers this cycle.
func (s *PortSample) RespFire() bool { return s.RReq && s.RGnt }

// SamplePort reads one cycle of p off its wires, once for every observer of
// the port.
func SamplePort(p *stbus.Port) PortSample {
	s := PortSample{Req: p.Req.Bool(), Gnt: p.Gnt.Bool(), RReq: p.RReq.Bool(), RGnt: p.RGnt.Bool()}
	if s.Req {
		s.Cell = p.SampleCell()
	}
	if s.RReq {
		s.Resp = p.SampleResp()
	}
	return s
}

// Sample is one cycle of a port on a port configured as cfg whose lines
// carry these values, as SamplePort would read it off the wires: the request
// cell only while req is high, the response cell only while rreq is high,
// and every field masked to its wire's width, as sim.Signal.Set masks it.
func Sample(cfg stbus.PortConfig, req, gnt bool, cell stbus.Cell, rreq, rgnt bool, resp stbus.RespCell) PortSample {
	s := PortSample{Req: req, Gnt: gnt, RReq: rreq, RGnt: rgnt}
	if req {
		s.Cell = wireCell(cfg, cell)
	}
	if rreq {
		s.Resp = wireResp(cfg, resp)
	}
	return s
}

// wireCell is cell as the request wires of a port configured as cfg carry
// it.
func wireCell(cfg stbus.PortConfig, cell stbus.Cell) stbus.Cell {
	cell.Addr &= lowBits(cfg.AddrBits)
	cell.Data = cell.Data.Mask(cfg.DataBits)
	cell.BE &= lowBits(cfg.BusBytes())
	cell.Pri &= 1<<priBits - 1
	return cell
}

// wireResp is resp as the response wires of a port configured as cfg carry
// it.
func wireResp(cfg stbus.PortConfig, resp stbus.RespCell) stbus.RespCell {
	resp.Data = resp.Data.Mask(cfg.DataBits)
	return resp
}

// InitiatorSideEqual reports whether s, a sample of an initiator port
// configured as cfg, carries these values on the wires the node drives
// there: gnt, r_req and, while r_req is high, the response cell, masked as
// Sample masks it. Where the harness drives the port's other wires alike,
// it reports whether s equals the port's Sample.
func (s *PortSample) InitiatorSideEqual(cfg stbus.PortConfig, gnt, rreq bool, resp stbus.RespCell) bool {
	return s.Gnt == gnt && s.RReq == rreq && (!rreq || s.Resp == wireResp(cfg, resp))
}

// TargetSideEqual reports whether s, a sample of a target port configured
// as cfg, carries these values on the wires the node drives there: req,
// while req is high the request cell, masked as Sample masks it, and r_gnt.
// Where the harness drives the port's other wires alike, it reports whether
// s equals the port's Sample.
func (s *PortSample) TargetSideEqual(cfg stbus.PortConfig, req bool, cell stbus.Cell, rgnt bool) bool {
	return s.Req == req && s.RGnt == rgnt && (!req || s.Cell == wireCell(cfg, cell))
}

// lowBits returns a mask of the low w bits.
func lowBits(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<w - 1
}

// priBits is the width of a port's pri wire.
const priBits = 4

// wireNames names a port's wires in stbus.Port.Signals order.
var wireNames = [...]string{
	"req", "gnt", "opc", "add", "data", "be", "eop", "lck", "tid", "src", "pri",
	"r_req", "r_gnt", "r_opc", "r_data", "r_eop", "r_tid", "r_src",
}

// NumWires is the number of wires a PortSample stands for.
const NumWires = len(wireNames)

// WireName returns the name of a port's wire i under the port's scope, in
// stbus.Port.Signals order: the order Values writes the wires in.
func WireName(i int) string { return wireNames[i] }

// WireWidths returns the widths of a port's wires on a port configured as
// cfg, in WireName order.
func WireWidths(cfg stbus.PortConfig) [NumWires]int {
	cfg = cfg.WithDefaults()
	return [NumWires]int{1, 1, 8, cfg.AddrBits, cfg.DataBits, cfg.BusBytes(), 1, 1, 8, 8, priBits,
		1, 1, 8, cfg.DataBits, 1, 8, 8}
}

// Values writes the value of each wire the sample stands for to v, in
// WireName order; v holds at least NumWires values.
func (s *PortSample) Values(v []sim.Bits) {
	c, r := &s.Cell, &s.Resp
	_ = v[NumWires-1]
	v[0], v[1] = sim.BBool(s.Req), sim.BBool(s.Gnt)
	v[2], v[3], v[4], v[5] = sim.B64(uint64(c.Opc)), sim.B64(c.Addr), c.Data, sim.B64(c.BE)
	v[6], v[7] = sim.BBool(c.EOP), sim.BBool(c.Lck)
	v[8], v[9], v[10] = sim.B64(uint64(c.TID)), sim.B64(uint64(c.Src)), sim.B64(uint64(c.Pri))
	v[11], v[12] = sim.BBool(s.RReq), sim.BBool(s.RGnt)
	v[13], v[14], v[15] = sim.B64(uint64(r.ROpc)), r.Data, sim.BBool(r.EOP)
	v[16], v[17] = sim.B64(uint64(r.TID)), sim.B64(uint64(r.Src))
}

// Env is the observing half of the common environment around one node (the
// Monitor, Protocol checker, Scoreboard and Coverage blocks of Figure 2):
// per port a transaction assembler and a protocol checker, initiator ports
// first, then the scoreboard and the functional-coverage model. The signal
// bench and the ports bench both build it with NewEnv and feed it with
// Observe, so they observe, check and cover alike by construction.
type Env struct {
	// Asm and Checkers hold one assembler and one checker per port,
	// initiator ports first.
	Asm        []*TxAssembler
	Checkers   []*Checker
	Scoreboard *Scoreboard
	Coverage   *CoverageModel
	// Latencies holds one total latency (cycles) per completed
	// initiator-side transaction, in completion order.
	Latencies []uint64

	nInit int
	cyc   uint64
}

// NewEnv builds the observers of node, its coverage bins declared for
// traffic tc. names are the node's port names, initiator ports first.
func NewEnv(node nodespec.Config, tc TrafficConfig, names []string) *Env {
	node = node.WithDefaults()
	e := &Env{Scoreboard: NewScoreboard(node), Coverage: NewCoverageModel(node, tc), nInit: node.NumInit}
	for k, name := range names {
		init, idx, route := k < e.nInit, k-e.nInit, RouteFunc(nil)
		if init {
			idx, route = k, NodeRouter(node, k)
		}
		e.Asm = append(e.Asm, NewTxAssembler(node.Port, idx, init, route))
		e.Checkers = append(e.Checkers, NewChecker(name, node, init, route))
	}
	return e
}

// Clone returns a deep copy of the env that shares no state with e: the
// assemblers with their pending packets, the checkers, the scoreboard, the
// latencies and the coverage model. Stepped on the samples e is stepped on,
// the copy reports what e reports. core.RunPairCtx lets one env observe
// both views while their samples agree, and clones it for the BCA view at
// the first cycle they do not.
func (e *Env) Clone() *Env {
	c := &Env{
		Asm:        make([]*TxAssembler, len(e.Asm)),
		Checkers:   make([]*Checker, len(e.Checkers)),
		Scoreboard: e.Scoreboard.clone(),
		Coverage:   e.Coverage.clone(),
		Latencies:  slices.Clone(e.Latencies),
		nInit:      e.nInit,
		cyc:        e.cyc,
	}
	for k, a := range e.Asm {
		c.Asm[k] = a.clone()
	}
	for k, ck := range e.Checkers {
		c.Checkers[k] = ck.clone()
	}
	return c
}

// Observe consumes one cycle: one sample per port, in NewEnv's order. Each
// port's assembler and then its checker see its sample, initiator ports
// first; a transaction an initiator-side assembler completes goes to the
// latencies, the scoreboard and the coverage model, one a target-side
// assembler completes to the scoreboard. The coverage model then samples
// how many initiators request.
func (e *Env) Observe(ports []PortSample) {
	requesting := 0
	for k := range ports {
		s, a := &ports[k], e.Asm[k]
		if s.ReqFire() {
			a.ReqCell(e.cyc, s.Cell)
		}
		var tr *stbus.Transaction
		if s.RespFire() {
			tr = a.RespCell(e.cyc, s.Resp)
		}
		switch {
		case tr == nil:
		case k < e.nInit:
			e.Latencies = append(e.Latencies, tr.Latency())
			e.Scoreboard.AddInitiatorTransaction(tr)
			e.Coverage.SampleTransaction(tr, a.LastCompletedSeq(), a.OldestPendingSeq())
		default:
			e.Scoreboard.AddTargetTransaction(tr)
		}
		e.Checkers[k].Step(s)
		if k < e.nInit && s.Req {
			requesting++
		}
	}
	e.Coverage.SampleContention(requesting)
	e.cyc++
}

// Violations returns every checker's violations, port by port.
func (e *Env) Violations() []Violation {
	var vs []Violation
	for _, c := range e.Checkers {
		vs = append(vs, c.Violations...)
	}
	return vs
}

// Transactions returns how many transactions the initiator-side assemblers
// completed.
func (e *Env) Transactions() int {
	n := 0
	for _, a := range e.Asm[:e.nInit] {
		n += len(a.Completed)
	}
	return n
}

// TailCycles is how long a bench runs on after it drains, so registered
// responses and the observers settle.
const TailCycles = 5

// Schedule holds the run rules both benches follow, one cycle at a time.
// Before every cycle it asks whether every initiator has drained its
// program; until then the run stops, undrained, once it has run its limit,
// and once drained it runs TailCycles more.
type Schedule struct {
	// Drained reports whether every initiator drained within the limit.
	Drained bool

	done             func() bool
	limit, ran, tail int
}

// NewSchedule starts the run rules of a bench whose initiators replay ops.
// limit bounds the cycles run before draining; 0 derives it from the
// traffic volume.
func NewSchedule(limit int, ops [][]Op, inits []*Initiator) Schedule {
	if limit == 0 {
		cells := 0
		for _, stream := range ops {
			for _, o := range stream {
				cells += len(o.Cells) + o.IdleBefore
			}
		}
		limit = 2000 + cells*60
	}
	return Schedule{limit: limit, done: allDone(inits)}
}

// allDone returns the drain check over inits.
func allDone(inits []*Initiator) func() bool {
	return func() bool {
		for _, in := range inits {
			if !in.Done() {
				return false
			}
		}
		return true
	}
}

// Copy returns the schedule in its state, the cycles run, the drain and
// the tail, its drain check asking inits: the schedule of a bench that
// goes on from copies of this bench's initiators.
func (s *Schedule) Copy(inits []*Initiator) Schedule {
	c := *s
	c.done = allDone(inits)
	return c
}

// Next reports whether the bench runs another cycle.
func (s *Schedule) Next() bool {
	if !s.Drained {
		if !s.done() {
			if s.ran >= s.limit {
				return false
			}
			s.ran++
			return true
		}
		s.Drained, s.tail = true, TailCycles
	}
	if s.tail == 0 {
		return false
	}
	s.tail--
	return true
}
