package catg

import (
	"slices"

	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Route codes a route classifier may return for a first-cell address.
const (
	// RouteUnmapped marks addresses outside every map region (answered by
	// the DUT's error responder).
	RouteUnmapped = -1
	// RouteProg marks addresses inside the programming region.
	RouteProg = -2
)

// RouteFunc classifies a first-cell address: a target index, RouteUnmapped
// or RouteProg. NodeRouter builds one from a node configuration.
type RouteFunc func(addr uint64) int

// NodeRouter returns the route classifier of a node configuration, as seen
// from initiator port initIdx (partial-crossbar connectivity included).
func NodeRouter(cfg nodespec.Config, initIdx int) RouteFunc {
	return func(addr uint64) int {
		if cfg.ProgPort && addr >= cfg.ProgBase && addr < cfg.ProgBase+uint64(4*cfg.NumInit) {
			return RouteProg
		}
		t := cfg.Map.Route(addr)
		if t < 0 || !cfg.Connected(initIdx, t) {
			return RouteUnmapped
		}
		return t
	}
}

type pendingTx struct {
	tr      *stbus.Transaction
	reqOp   stbus.Opcode
	reqAddr uint64
	seq     uint64
}

// TxAssembler is the monitor of one port (the "Monitor" blocks of Figure
// 2): it reconstructs transactions from a stream of request-cell and
// response-cell transfer events. Env feeds it the transfers of each cycle's
// port sample, in the signal bench and the ports bench alike;
// offline extraction (internal/stba) feeds it the transfers of a recorded
// dump. Using one assembler everywhere guarantees they report identical
// transactions.
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

// clone returns a copy of the assembler sharing no mutable state with a.
// Completed transactions are shared, as nothing changes them; each pending
// one is copied, as its response completes it in place.
func (a *TxAssembler) clone() *TxAssembler {
	c := *a
	c.Completed = slices.Clone(a.Completed)
	c.reqCells = slices.Clone(a.reqCells)
	c.respCells = slices.Clone(a.respCells)
	c.pending = slices.Clone(a.pending)
	for k := range c.pending {
		tr := *c.pending[k].tr
		c.pending[k].tr = &tr
	}
	return &c
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

// RespCell records one granted response cell at cycle cyc. At a packet's
// last cell it returns the transaction the packet completes, nil before.
func (a *TxAssembler) RespCell(cyc uint64, cell stbus.RespCell) *stbus.Transaction {
	a.respCells = append(a.respCells, cell)
	if !cell.EOP {
		return nil
	}
	tr := a.finishResponse(cyc)
	a.Completed = append(a.Completed, tr)
	return tr
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

func (a *TxAssembler) finishResponse(cyc uint64) *stbus.Transaction {
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
		return &stbus.Transaction{Initiator: -1, Target: -1, TID: first.TID, Src: first.Src,
			Err: true, StartCycle: cyc, EndCycle: cyc}
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
	return tr
}

// LastCompletedSeq returns the issue sequence number of the most recently
// completed transaction (0 before any completion or for orphan responses).
func (a *TxAssembler) LastCompletedSeq() uint64 { return a.lastCompletedSeq }

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
