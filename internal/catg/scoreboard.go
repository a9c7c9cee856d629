package catg

import (
	"bytes"
	"fmt"
	"slices"

	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Scoreboard checks data integrity through a routing DUT: every transaction
// observed entering an initiator port must be observed unmodified at the
// routed target port, with matching request payloads and response payloads
// (the paper's "Automatic Check on data integrity: the DUT outputs' data
// correspond to the inputs' one").
//
// Transactions routed to the DUT's internal services (unmapped addresses,
// the programming region) have no target-side counterpart; the scoreboard
// instead checks their response contract (error flags, register readback).
type Scoreboard struct {
	Node nodespec.Config

	initTxs []*stbus.Transaction
	tgtTxs  []*stbus.Transaction

	// progRegs is the programming register file at reset; Check replays
	// the stores on a copy of it to check readbacks.
	progRegs []uint8
}

// NewScoreboard builds an empty scoreboard for node.
func NewScoreboard(node nodespec.Config) *Scoreboard {
	node = node.WithDefaults()
	return &Scoreboard{Node: node, progRegs: node.DefaultPriorities()}
}

// clone returns a copy of the scoreboard sharing no mutable state with s.
func (s *Scoreboard) clone() *Scoreboard {
	c := *s
	c.initTxs = slices.Clone(s.initTxs)
	c.tgtTxs = slices.Clone(s.tgtTxs)
	return &c
}

// AddInitiatorTransaction feeds one completed initiator-side transaction.
func (s *Scoreboard) AddInitiatorTransaction(tr *stbus.Transaction) {
	s.initTxs = append(s.initTxs, tr)
}

// AddTargetTransaction feeds one completed target-side transaction.
func (s *Scoreboard) AddTargetTransaction(tr *stbus.Transaction) {
	s.tgtTxs = append(s.tgtTxs, tr)
}

type sbKey struct {
	src  uint8
	tid  uint8
	opc  stbus.Opcode
	addr uint64
}

// Check matches the two transaction streams and returns every data-integrity
// error found. Call it after the test drains; calling it again gives the
// same errors.
func (s *Scoreboard) Check() []string {
	var errs []string
	regs := slices.Clone(s.progRegs)
	byKey := make(map[sbKey][]*stbus.Transaction, len(s.tgtTxs))
	for _, tr := range s.tgtTxs {
		k := sbKey{src: tr.Src, tid: tr.TID, opc: tr.Opc, addr: tr.Addr}
		byKey[k] = append(byKey[k], tr)
	}
	for _, tr := range s.initTxs {
		switch {
		case tr.Target >= 0:
			k := sbKey{src: tr.Src, tid: tr.TID, opc: tr.Opc, addr: tr.Addr}
			q := byKey[k]
			if len(q) == 0 {
				errs = append(errs, fmt.Sprintf("%v: never observed at target side", tr))
				continue
			}
			tt := q[0]
			byKey[k] = q[1:]
			if !bytes.Equal(tr.WriteData, tt.WriteData) {
				errs = append(errs, fmt.Sprintf("%v: write data corrupted through DUT (%x vs %x)",
					tr, tr.WriteData, tt.WriteData))
			}
			if tr.Err != tt.Err {
				errs = append(errs, fmt.Sprintf("%v: error flag changed through DUT", tr))
			}
			if !tr.Err && !bytes.Equal(tr.ReadData, tt.ReadData) {
				errs = append(errs, fmt.Sprintf("%v: read data corrupted through DUT (%x vs %x)",
					tr, tr.ReadData, tt.ReadData))
			}
		case tr.Target == RouteUnmapped:
			if !tr.Err {
				errs = append(errs, fmt.Sprintf("%v: unmapped access must error", tr))
			}
		case tr.Target == RouteProg:
			errs = append(errs, s.checkProg(tr, regs)...)
		}
	}
	// Each key's leftovers are the tail of its queue, so walking the target
	// stream reports them in observation order: a map range would shuffle
	// them between identical runs.
	for _, tr := range s.tgtTxs {
		k := sbKey{src: tr.Src, tid: tr.TID, opc: tr.Opc, addr: tr.Addr}
		if q := byKey[k]; len(q) > 0 && q[0] == tr {
			byKey[k] = q[1:]
			errs = append(errs, fmt.Sprintf("target-side transaction %+v never requested by an initiator", k))
		}
	}
	return errs
}

// checkProg models the register decoder on regs to validate programming-port
// responses. Transactions are checked in initiator completion order, which
// matches the order the node serviced them for a single programming port.
func (s *Scoreboard) checkProg(tr *stbus.Transaction, regs []uint8) []string {
	var errs []string
	reg := int(tr.Addr-s.Node.ProgBase) / 4
	legal := reg >= 0 && reg < s.Node.NumInit && (tr.Opc == stbus.ST4 || tr.Opc == stbus.LD4)
	if !legal {
		if !tr.Err {
			errs = append(errs, fmt.Sprintf("%v: illegal programming access must error", tr))
		}
		return errs
	}
	if tr.Err {
		errs = append(errs, fmt.Sprintf("%v: legal programming access errored", tr))
		return errs
	}
	if tr.Opc == stbus.ST4 {
		regs[reg] = tr.WriteData[0] & 0xf
		return errs
	}
	if len(tr.ReadData) != 4 || tr.ReadData[0] != regs[reg] {
		errs = append(errs, fmt.Sprintf("%v: register readback %x, model %#x",
			tr, tr.ReadData, regs[reg]))
	}
	return errs
}
