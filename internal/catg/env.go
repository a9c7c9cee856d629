package catg

import (
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// PortSample is one cycle of a port as every observer sees it: the four
// handshake lines, the request cell while req is high and the response cell
// when a response fires. The signal bench reads it off the wires with
// SamplePort; the ports bench (core.RunPorts) fills it from the engine's
// function-call values.
type PortSample struct {
	Req, Gnt, RReq, RGnt bool
	// Cell is the request cell, set only while Req is high.
	Cell stbus.Cell
	// Resp is the response cell, set only when a response fires.
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
	if s.RespFire() {
		s.Resp = p.SampleResp()
	}
	return s
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

// AttachEnv builds the observers of node around signal-level ports,
// initiator ports first, and registers the one cycle-end hook that reads
// each port once with SamplePort and feeds the samples to Observe.
func AttachEnv(sm *sim.Simulator, node nodespec.Config, tc TrafficConfig, ports []*stbus.Port) *Env {
	names := make([]string, len(ports))
	for k, p := range ports {
		names[k] = p.Name
	}
	e := NewEnv(node, tc, names)
	samples := make([]PortSample, len(ports))
	sm.AtCycleEnd(func() {
		for k, p := range ports {
			samples[k] = SamplePort(p)
		}
		e.Observe(samples)
	})
	return e
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
func NewSchedule[I interface{ Done() bool }](limit int, ops [][]Op, inits []I) Schedule {
	if limit == 0 {
		cells := 0
		for _, stream := range ops {
			for _, o := range stream {
				cells += len(o.Cells) + o.IdleBefore
			}
		}
		limit = 2000 + cells*60
	}
	return Schedule{limit: limit, done: func() bool {
		for _, in := range inits {
			if !in.Done() {
				return false
			}
		}
		return true
	}}
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
