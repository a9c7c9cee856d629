package catg

import (
	"crve/internal/stbus"
)

// TxAssembler is the signal-independent core of a Monitor: it reconstructs
// transactions from a stream of request-cell and response-cell transfer
// events at one port. The signal-level Monitor feeds it from sampled wires;
// the transaction-level bench (internal/tlm, the paper's future-work "ports
// approach") feeds it from function-call events. Using one assembler for
// both guarantees the two bench styles report identical transactions.
type TxAssembler struct {
	// Cfg is the port configuration (protocol type, width, endianness).
	Cfg stbus.PortConfig
	// Index is the port's position on its side of the DUT.
	Index int
	// InitiatorSide is true for DUT initiator-facing ports.
	InitiatorSide bool
	// Route classifies first-cell addresses (nil on target-side ports).
	Route RouteFunc

	// Completed transactions in completion order.
	Completed []*stbus.Transaction
	listeners []func(*stbus.Transaction)

	reqCells  []stbus.Cell
	reqStart  uint64
	pending   []pendingTx
	respCells []stbus.RespCell
	seq       uint64

	lastCompletedSeq uint64
}

// NewTxAssembler builds an assembler for one port.
func NewTxAssembler(cfg stbus.PortConfig, index int, initiatorSide bool, route RouteFunc) *TxAssembler {
	return &TxAssembler{Cfg: cfg.WithDefaults(), Index: index, InitiatorSide: initiatorSide, Route: route}
}

// OnComplete registers a transaction listener.
func (a *TxAssembler) OnComplete(fn func(*stbus.Transaction)) {
	a.listeners = append(a.listeners, fn)
}

// ReqCell records one granted request cell at cycle cyc.
func (a *TxAssembler) ReqCell(cyc uint64, cell stbus.Cell) {
	if len(a.reqCells) == 0 {
		a.reqStart = cyc
	}
	a.reqCells = append(a.reqCells, cell)
	if cell.EOP {
		a.finishRequest(cyc)
	}
}

// RespCell records one granted response cell at cycle cyc.
func (a *TxAssembler) RespCell(cyc uint64, cell stbus.RespCell) {
	a.respCells = append(a.respCells, cell)
	if cell.EOP {
		a.finishResponse(cyc)
	}
}

func (a *TxAssembler) finishRequest(cyc uint64) {
	first := a.reqCells[0]
	tr := &stbus.Transaction{
		Initiator:   -1,
		Target:      -1,
		Opc:         first.Opc,
		Addr:        first.Addr,
		TID:         first.TID,
		Src:         first.Src,
		Pri:         first.Pri,
		Lck:         first.Lck,
		StartCycle:  a.reqStart,
		ReqEndCycle: cyc,
	}
	if a.InitiatorSide {
		tr.Initiator = a.Index
	}
	if a.Route != nil {
		tr.Target = a.Route(first.Addr)
	} else if !a.InitiatorSide {
		tr.Target = a.Index
	}
	if first.Opc.HasWriteData() {
		tr.WriteData = stbus.ExtractWriteData(a.Cfg.Endian, a.reqCells, a.Cfg.BusBytes())
	}
	a.seq++
	a.pending = append(a.pending, pendingTx{tr: tr, reqOp: first.Opc, reqAddr: first.Addr, seq: a.seq})
	// Nothing above retains the cell slice (ExtractWriteData copies), so the
	// buffer is reused across packets instead of reallocated.
	a.reqCells = a.reqCells[:0]
}

func (a *TxAssembler) finishResponse(cyc uint64) {
	// cells stays valid through this call — the next RespCell append that
	// could overwrite the backing array happens only after it returns — and
	// ExtractReadData copies, so the buffer is reused across packets.
	cells := a.respCells
	a.respCells = a.respCells[:0]
	first := cells[0]
	// Pair with a pending request: Type III matches on (src, tid); the
	// ordered protocols take the oldest pending request.
	idx := -1
	if a.Cfg.Type == stbus.Type3 {
		for k, pt := range a.pending {
			if pt.tr.Src == first.Src && pt.tr.TID == first.TID {
				idx = k
				break
			}
		}
	} else if len(a.pending) > 0 {
		idx = 0
	}
	if idx < 0 {
		// Orphan response: surface it as an anonymous errored transaction so
		// the checker and scoreboard can flag it.
		tr := &stbus.Transaction{Initiator: -1, Target: -1, TID: first.TID, Src: first.Src,
			Err: true, StartCycle: cyc, EndCycle: cyc}
		a.complete(tr)
		return
	}
	pt := a.pending[idx]
	a.pending = append(a.pending[:idx], a.pending[idx+1:]...)
	a.lastCompletedSeq = pt.seq
	tr := pt.tr
	tr.EndCycle = cyc
	for _, c := range cells {
		if c.Err() {
			tr.Err = true
		}
	}
	if pt.reqOp.IsLoad() && !tr.Err {
		tr.ReadData = stbus.ExtractReadData(a.Cfg.Endian, pt.reqOp, pt.reqAddr, cells, a.Cfg.BusBytes())
	}
	a.complete(tr)
}

func (a *TxAssembler) complete(tr *stbus.Transaction) {
	a.Completed = append(a.Completed, tr)
	for _, fn := range a.listeners {
		fn(tr)
	}
}

// LastCompletedSeq returns the issue sequence number of the most recently
// completed transaction (0 before any completion or for orphan responses).
func (a *TxAssembler) LastCompletedSeq() uint64 { return a.lastCompletedSeq }

// PendingCount returns the number of request packets awaiting a response.
func (a *TxAssembler) PendingCount() int { return len(a.pending) }

// OldestPendingSeq returns the issue sequence number of the oldest pending
// transaction (0 when none).
func (a *TxAssembler) OldestPendingSeq() uint64 {
	if len(a.pending) == 0 {
		return 0
	}
	oldest := a.pending[0].seq
	for _, pt := range a.pending {
		if pt.seq < oldest {
			oldest = pt.seq
		}
	}
	return oldest
}
