package catg

import (
	"math/rand"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// Initiator is the signal-independent core of an initiator BFM: it walks a
// generated operation stream, holding each cell until it is granted and
// leaving each operation's idle gap before it. InitiatorBFM and
// FaultyInitiatorBFM step it from a port's wires; the ports bench
// (core.RunPorts) steps it from function calls, so every bench presents
// the same stimulus by construction.
type Initiator struct {
	ops     []Op
	opIdx   int
	cellIdx int
	idle    int
	started bool

	sent     int
	received int
}

// NewInitiator builds the core for an operation stream.
func NewInitiator(ops []Op) *Initiator { return &Initiator{ops: ops} }

// Step advances the core by one clock edge. granted reports that the cell
// presented last cycle was accepted (req and gnt high); respEOP that last
// cycle accepted the final cell of a response packet. It returns the cell
// to present this cycle and whether to present one (req).
func (in *Initiator) Step(granted, respEOP bool) (cell stbus.Cell, req bool) {
	if granted {
		in.cellIdx++
		if in.cellIdx == len(in.ops[in.opIdx].Cells) {
			in.sent++
			in.opIdx++
			in.cellIdx = 0
			if in.opIdx < len(in.ops) {
				in.idle = in.ops[in.opIdx].IdleBefore
			}
		}
	} else if in.started && in.idle > 0 {
		in.idle--
	}
	if !in.started {
		in.started = true
		if in.opIdx < len(in.ops) {
			in.idle = in.ops[in.opIdx].IdleBefore
		}
	}
	if respEOP {
		in.received++
	}
	if in.opIdx < len(in.ops) && in.idle == 0 {
		cell, req = in.ops[in.opIdx].Cells[in.cellIdx], true
	}
	return cell, req
}

// Done reports whether every operation was issued and every response packet
// received.
func (in *Initiator) Done() bool { return in.opIdx >= len(in.ops) && in.received >= in.sent }

// InitiatorBFM drives one initiator-facing DUT port with a generated
// operation stream, honouring the request handshake (cells held until
// granted) and always accepting responses. It corresponds to the "Harness"
// blocks of the paper's Figure 2; the stream walk itself is Initiator.
type InitiatorBFM struct {
	Port *stbus.Port
	core *Initiator
}

// NewInitiatorBFM attaches a BFM to port, registering its clocked driver
// process with the simulator.
func NewInitiatorBFM(sm *sim.Simulator, port *stbus.Port, ops []Op) *InitiatorBFM {
	b := &InitiatorBFM{Port: port, core: NewInitiator(ops)}
	sm.Seq(port.Name+".bfm", b.tick)
	return b
}

func (b *InitiatorBFM) tick() {
	p := b.Port
	if cell, req := b.core.Step(p.ReqFire(), p.RespFire() && p.REOP.Bool()); req {
		p.DriveCell(cell)
	} else {
		p.IdleReq()
	}
	p.RGnt.SetBool(true)
}

// Done reports whether every operation was issued and every response packet
// received.
func (b *InitiatorBFM) Done() bool { return b.core.Done() }

// TargetSeed derives the timing seed of target tgt from a test seed. Every
// bench in internal/core seeds its targets with it (the signal views'
// TargetBFMs and the ports bench's Target cores), so a test's target
// timing is the same whichever bench runs it.
func TargetSeed(testSeed int64, tgt int) int64 { return testSeed*7919 + int64(tgt) }

// TargetConfig parameterises a target BFM's timing behaviour.
type TargetConfig struct {
	// MinLatency..MaxLatency bound the random response latency in cycles.
	MinLatency, MaxLatency int
	// GntGapPct is the percentage chance of a 1..3-cycle grant gap after an
	// accepted cell (a "slow target", the paper's out-of-order forcing
	// device).
	GntGapPct int
	// QueueDepth bounds packets in flight inside the target.
	QueueDepth int
}

// WithDefaults fills zero-valued fields.
func (tc TargetConfig) WithDefaults() TargetConfig {
	if tc.MaxLatency < tc.MinLatency {
		tc.MaxLatency = tc.MinLatency
	}
	if tc.QueueDepth == 0 {
		tc.QueueDepth = 4
	}
	return tc
}

type tgtPkt struct {
	resp    []stbus.RespCell
	readyAt uint64
	idx     int
}

// Target is the signal-independent core of a target BFM: a memory-backed
// STBus target with seeded random timing. TargetBFM steps it from a port's
// wires; the ports bench steps it from function calls, so the
// same seed yields the same grant and latency pattern in every bench.
type Target struct {
	cfg     TargetConfig
	portCfg stbus.PortConfig

	rng   *rand.Rand
	mem   stbus.SparseMem
	cur   []stbus.Cell
	queue []tgtPkt
	gap   int
	cyc   uint64
}

// NewTarget builds the core of a target on a port configured as portCfg,
// its timing drawn from seed.
func NewTarget(portCfg stbus.PortConfig, cfg TargetConfig, seed int64) *Target {
	return &Target{cfg: cfg.WithDefaults(), portCfg: portCfg, rng: rand.New(rand.NewSource(seed))}
}

// Step advances the core by one clock edge. reqFired reports that last
// cycle accepted the request cell cell; respFired that it accepted the
// response cell offered. It returns this cycle's response cell and whether
// it is offered (r_req), and whether a request cell is accepted this cycle
// (gnt). The random stream is drawn in a fixed order: one grant-gap draw
// per accepted cell, then the latency draw at a packet's last cell.
func (t *Target) Step(reqFired bool, cell stbus.Cell, respFired bool) (resp stbus.RespCell, rreq, gnt bool) {
	t.cyc++
	if reqFired {
		t.cur = append(t.cur, cell)
		if t.cfg.GntGapPct > 0 && t.rng.Intn(100) < t.cfg.GntGapPct {
			t.gap = 1 + t.rng.Intn(3)
		}
		if cell.EOP {
			lat := t.cfg.MinLatency
			if t.cfg.MaxLatency > t.cfg.MinLatency {
				lat += t.rng.Intn(t.cfg.MaxLatency - t.cfg.MinLatency + 1)
			}
			// Serve does not keep the cells, so the packet buffer is reused
			// across packets instead of reallocated.
			t.queue = append(t.queue, tgtPkt{resp: t.mem.Serve(t.portCfg, t.cur), readyAt: t.cyc + uint64(lat)})
			t.cur = t.cur[:0]
		}
	} else if t.gap > 0 {
		t.gap--
	}
	if respFired {
		h := &t.queue[0]
		h.idx++
		if h.idx == len(h.resp) {
			t.queue = t.queue[1:]
		}
	}
	if len(t.queue) > 0 && t.cyc >= t.queue[0].readyAt {
		resp, rreq = t.queue[0].resp[t.queue[0].idx], true
	}
	return resp, rreq, len(t.queue) < t.cfg.QueueDepth && t.gap == 0
}

// TargetBFM models a memory-backed STBus target with seeded random timing.
// The same seed yields the same grant/latency pattern on both DUT views;
// the target itself is Target.
type TargetBFM struct {
	Port *stbus.Port
	core *Target
}

// NewTargetBFM attaches a target BFM to port.
func NewTargetBFM(sm *sim.Simulator, port *stbus.Port, cfg TargetConfig, seed int64) *TargetBFM {
	b := &TargetBFM{Port: port, core: NewTarget(port.Cfg, cfg, seed)}
	sm.Seq(port.Name+".bfm", b.tick)
	return b
}

// Peek reads a byte of the target's memory, for tests.
func (b *TargetBFM) Peek(addr uint64) byte { return b.core.mem.Byte(addr) }

func (b *TargetBFM) tick() {
	p := b.Port
	var cell stbus.Cell
	fired := p.ReqFire()
	if fired {
		cell = p.SampleCell()
	}
	resp, rreq, gnt := b.core.Step(fired, cell, p.RespFire())
	if rreq {
		p.DriveResp(resp)
	} else {
		p.IdleResp()
	}
	p.Gnt.SetBool(gnt)
}
