package catg

import (
	"fmt"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// Fault selects a deliberate protocol violation for the fault-injecting
// harness. The paper notes the verification environment itself must be
// debugged ("some bugs could be given by verification environment"; the
// model verification "could also serve to correct verification
// implementation") — FaultyInitiatorBFM is the qualification rig that proves
// every checker rule actually fires.
type Fault int

const (
	// FaultNone injects nothing (the rig degenerates to a plain BFM).
	FaultNone Fault = iota
	// FaultDropReq deasserts req for one cycle while waiting for gnt.
	FaultDropReq
	// FaultMutatePayload changes the data payload while waiting for gnt.
	FaultMutatePayload
	// FaultShortPacket raises EOP one cell early on a multi-cell packet.
	FaultShortPacket
	// FaultLongPacket suppresses EOP on the last cell and appends extras.
	FaultLongPacket
	// FaultMisaligned issues a first cell with an unaligned address.
	FaultMisaligned
	// FaultBadOpcode issues an undefined opcode.
	FaultBadOpcode
	// FaultTagChange changes the tid mid-packet.
	FaultTagChange
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDropReq:
		return "drop-req"
	case FaultMutatePayload:
		return "mutate-payload"
	case FaultShortPacket:
		return "short-packet"
	case FaultLongPacket:
		return "long-packet"
	case FaultMisaligned:
		return "misaligned"
	case FaultBadOpcode:
		return "bad-opcode"
	case FaultTagChange:
		return "tag-change"
	default:
		return fmt.Sprintf("fault?%d", int(f))
	}
}

// CheckerRule returns the checker rule the fault must trigger.
func (f Fault) CheckerRule() string {
	switch f {
	case FaultDropReq:
		return "req-drop"
	case FaultMutatePayload:
		return "stability"
	case FaultShortPacket:
		return "packet-length"
	case FaultLongPacket:
		return "eop-missing"
	case FaultMisaligned:
		return "alignment"
	case FaultBadOpcode:
		return "opcode"
	case FaultTagChange:
		return "tag-change"
	default:
		return ""
	}
}

// AllFaults lists the injectable faults.
func AllFaults() []Fault {
	return []Fault{FaultDropReq, FaultMutatePayload, FaultShortPacket, FaultLongPacket,
		FaultMisaligned, FaultBadOpcode, FaultTagChange}
}

// InjectFault returns a mutated copy of ops with the fault applied to the
// packet at index pkt, for the statically expressible faults. Dynamic faults
// (FaultDropReq, FaultMutatePayload) are injected by the BFM at run time and
// leave the stream unchanged here.
func InjectFault(ops []Op, pkt int, f Fault) []Op {
	out := make([]Op, len(ops))
	for i := range ops {
		out[i] = Op{IdleBefore: ops[i].IdleBefore, Cells: append([]stbus.Cell(nil), ops[i].Cells...)}
	}
	if pkt >= len(out) {
		return out
	}
	cells := out[pkt].Cells
	switch f {
	case FaultShortPacket:
		if len(cells) >= 2 {
			cells[len(cells)-2].EOP = true
			out[pkt].Cells = cells[:len(cells)-1]
		}
	case FaultLongPacket:
		last := cells[len(cells)-1]
		cells[len(cells)-1].EOP = false
		extra := last
		extra.EOP = false
		tail := last
		tail.EOP = true
		out[pkt].Cells = append(cells, extra, tail)
	case FaultMisaligned:
		for i := range cells {
			cells[i].Addr++
		}
	case FaultBadOpcode:
		for i := range cells {
			cells[i].Opc = stbus.Opcode(0xEF) // kind 14: undefined
		}
	case FaultTagChange:
		if len(cells) >= 2 {
			cells[len(cells)-1].TID ^= 0x3f
		}
	}
	return out
}

// FaultyInitiatorBFM is an InitiatorBFM that additionally injects one
// dynamic handshake fault (drop-req or mutate-payload) on the chosen packet.
// Static faults should be applied to the stream with InjectFault instead.
type FaultyInitiatorBFM struct {
	Port  *stbus.Port
	Fault Fault
	// OnPacket is the packet index the dynamic fault strikes.
	OnPacket int

	core     *Initiator
	injected bool
	waiting  bool
}

// NewFaultyInitiatorBFM attaches the fault rig to port.
func NewFaultyInitiatorBFM(sm *sim.Simulator, port *stbus.Port, ops []Op, f Fault, onPacket int) *FaultyInitiatorBFM {
	b := &FaultyInitiatorBFM{Port: port, Fault: f, OnPacket: onPacket, core: NewInitiator(ops)}
	sm.Seq(port.Name+".faultybfm", b.tick)
	return b
}

func (b *FaultyInitiatorBFM) tick() {
	p := b.Port
	fired := p.ReqFire()
	if fired {
		b.waiting = false
	} else if p.Req.Bool() && !p.Gnt.Bool() {
		b.waiting = true
	}
	cell, req := b.core.Step(fired, p.RespFire() && p.REOP.Bool())
	p.RGnt.SetBool(true)
	if !req {
		p.IdleReq()
		return
	}
	// Dynamic fault injection while waiting for grant on the chosen packet.
	if b.waiting && !b.injected && b.core.opIdx == b.OnPacket {
		switch b.Fault {
		case FaultDropReq:
			b.injected = true
			p.IdleReq()
			return
		case FaultMutatePayload:
			b.injected = true
			cell.Data = cell.Data.Xor(sim.B64(0xff))
			cell.Addr ^= 0x4
		}
	}
	p.DriveCell(cell)
}

// Done reports whether the stream was issued and answered.
func (b *FaultyInitiatorBFM) Done() bool { return b.core.Done() }

// Injected reports whether the dynamic fault fired.
func (b *FaultyInitiatorBFM) Injected() bool { return b.injected }
