package catg

import (
	"math/rand"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// InitiatorBFM drives one initiator-facing DUT port with a generated
// operation stream, honouring the request handshake (cells held until
// granted) and always accepting responses. It corresponds to the "Harness"
// blocks of the paper's Figure 2.
type InitiatorBFM struct {
	Port *stbus.Port

	ops     []Op
	opIdx   int
	cellIdx int
	idle    int
	started bool

	sentPackets int
	respEOPs    int
}

// NewInitiatorBFM attaches a BFM to port, registering its clocked driver
// process with the simulator.
func NewInitiatorBFM(sm *sim.Simulator, port *stbus.Port, ops []Op) *InitiatorBFM {
	b := &InitiatorBFM{Port: port, ops: ops}
	sm.Seq(port.Name+".bfm", b.tick)
	return b
}

func (b *InitiatorBFM) tick() {
	p := b.Port
	if p.ReqFire() {
		cur := b.ops[b.opIdx]
		b.cellIdx++
		if b.cellIdx == len(cur.Cells) {
			b.sentPackets++
			b.opIdx++
			b.cellIdx = 0
			if b.opIdx < len(b.ops) {
				b.idle = b.ops[b.opIdx].IdleBefore
			}
		}
	} else if b.started && b.idle > 0 && !p.Req.Bool() {
		b.idle--
	}
	if !b.started {
		b.started = true
		if b.opIdx < len(b.ops) {
			b.idle = b.ops[b.opIdx].IdleBefore
		}
	}
	if b.opIdx < len(b.ops) && b.idle == 0 {
		p.DriveCell(b.ops[b.opIdx].Cells[b.cellIdx])
	} else {
		p.IdleReq()
	}
	if p.RespFire() && p.SampleResp().EOP {
		b.respEOPs++
	}
	p.RGnt.SetBool(true)
}

// Done reports whether every operation was issued and every response packet
// received.
func (b *InitiatorBFM) Done() bool {
	return b.opIdx >= len(b.ops) && b.respEOPs >= b.sentPackets
}

// Sent returns the number of request packets fully issued.
func (b *InitiatorBFM) Sent() int { return b.sentPackets }

// Received returns the number of response packets received.
func (b *InitiatorBFM) Received() int { return b.respEOPs }

// TargetSeed derives the timing seed of target tgt from a test seed, the
// formula shared by the signal-level bench (internal/core) and the
// transaction-level bench (internal/tlm) so both consume identical
// randomness.
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

// TargetBFM models a memory-backed STBus target with seeded random timing.
// The same seed yields the same grant/latency pattern on both DUT views.
type TargetBFM struct {
	Port *stbus.Port
	Cfg  TargetConfig

	rng   *rand.Rand
	mem   stbus.SparseMem
	cur   []stbus.Cell
	rd    []byte // read-data scratch: BuildResponse copies it into the cells
	queue []tgtPkt
	gap   int
	cyc   uint64
}

// NewTargetBFM attaches a target BFM to port.
func NewTargetBFM(sm *sim.Simulator, port *stbus.Port, cfg TargetConfig, seed int64) *TargetBFM {
	b := &TargetBFM{Port: port, Cfg: cfg.WithDefaults(), rng: rand.New(rand.NewSource(seed))}
	sm.Seq(port.Name+".bfm", b.tick)
	return b
}

// Peek reads a byte of the target's memory, for tests.
func (b *TargetBFM) Peek(addr uint64) byte { return b.mem.Byte(addr) }

func (b *TargetBFM) tick() {
	p := b.Port
	b.cyc++
	if p.ReqFire() {
		b.cur = append(b.cur, p.SampleCell())
		if b.Cfg.GntGapPct > 0 && b.rng.Intn(100) < b.Cfg.GntGapPct {
			b.gap = 1 + b.rng.Intn(3)
		}
		if b.cur[len(b.cur)-1].EOP {
			// serve consumes the cells synchronously, so the packet buffer is
			// reused across packets instead of reallocated.
			b.queue = append(b.queue, b.serve(b.cur))
			b.cur = b.cur[:0]
		}
	} else if b.gap > 0 {
		b.gap--
	}
	if p.RespFire() {
		h := &b.queue[0]
		h.idx++
		if h.idx == len(h.resp) {
			b.queue = b.queue[1:]
		}
	}
	if len(b.queue) > 0 && b.cyc >= b.queue[0].readyAt {
		p.DriveResp(b.queue[0].resp[b.queue[0].idx])
	} else {
		p.IdleResp()
	}
	p.Gnt.SetBool(len(b.queue) < b.Cfg.QueueDepth && b.gap == 0)
}

// serve executes a completed request packet against the memory model.
func (b *TargetBFM) serve(cells []stbus.Cell) tgtPkt {
	cfg := b.Port.Cfg
	first := cells[0]
	op, addr := first.Opc, first.Addr
	lat := b.Cfg.MinLatency
	if b.Cfg.MaxLatency > b.Cfg.MinLatency {
		lat += b.rng.Intn(b.Cfg.MaxLatency - b.Cfg.MinLatency + 1)
	}
	pk := tgtPkt{readyAt: b.cyc + uint64(lat)}
	var rd []byte
	if op.IsLoad() {
		n := op.SizeBytes()
		if cap(b.rd) < n {
			b.rd = make([]byte, n)
		}
		rd = b.rd[:n]
		b.mem.Read(addr, rd)
	}
	if op.HasWriteData() {
		b.mem.Write(addr, stbus.ExtractWriteData(cfg.Endian, cells, cfg.BusBytes()))
	}
	resp, err := stbus.BuildResponse(cfg.Type, cfg.Endian, op, addr, rd, cfg.BusBytes(),
		first.TID, first.Src, false)
	if err != nil {
		resp = []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: first.TID, Src: first.Src}}
	}
	pk.resp = resp
	return pk
}
