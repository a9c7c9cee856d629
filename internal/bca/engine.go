package bca

import (
	"fmt"

	"crve/internal/arb"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Route sentinels. Deliberately different encodings from the RTL view: the
// implementations share the specification, not code.
const (
	routeIdle = -100
	intErr    = -10
	intProg   = -11
)

// Inputs is the engine's view of one cycle's settled port inputs.
type Inputs struct {
	// Per initiator port.
	Req  []bool
	Addr []uint64
	EOP  []bool
	Lck  []bool
	Pri  []uint8
	RGnt []bool
	// Per target port.
	TgtGnt   []bool
	TgtRResp []bool
	TgtRSrc  []uint8
}

// NewInputs allocates an input record sized for cfg.
func NewInputs(cfg nodespec.Config) *Inputs {
	return &Inputs{
		Req: make([]bool, cfg.NumInit), Addr: make([]uint64, cfg.NumInit),
		EOP: make([]bool, cfg.NumInit), Lck: make([]bool, cfg.NumInit),
		Pri: make([]uint8, cfg.NumInit), RGnt: make([]bool, cfg.NumInit),
		TgtGnt: make([]bool, cfg.NumTgt), TgtRResp: make([]bool, cfg.NumTgt),
		TgtRSrc: make([]uint8, cfg.NumTgt),
	}
}

// Outputs is what the engine drives after each cycle.
type Outputs struct {
	Gnt  []bool
	RGnt []bool
	// Registered forwarding stage contents for the next cycle.
	TgtReq  []bool
	TgtCell []stbus.Cell
	InitRsp []bool
	InitRC  []stbus.RespCell
}

// Engine is the transaction-level node model: packets are assembled,
// routed and answered as whole units; per-cycle signal behaviour falls out
// of replaying the forwarding-stage slots. The wrapped Node and the
// standalone runner are built on it, and the ports bench (core.RunPorts,
// the "ports approach" of the paper's future work) drives it directly
// through Plan, Commit and Out.
type Engine struct {
	cfg  nodespec.Config
	bugs Bugs

	reqArbs  []arb.Policy // per target; index NumTgt = global (shared bus)
	respArbs []arb.Policy // per initiator over NumTgt+1 sources
	respGlob arb.Policy
	prog     *arb.ProgrammablePolicy
	regs     []uint8

	// Per-initiator request-side state.
	pktRoute []int          // routeIdle when between packets
	pktCells [][]stbus.Cell // assembled cells of the open packet
	inflight [][]int        // outstanding source indices, issue order

	// Per-initiator response-side state.
	intQ    [][]stbus.RespCell
	rspBusy []bool
	rspCell []stbus.RespCell
	rspFrom []int
	rspHold []bool

	// srcOwner learns which initiator port issues each src value (responses
	// route back by src, which is system-global in STBus hierarchies).
	srcOwner map[uint8]int

	// Per-target forwarding state.
	fwdBusy  []bool
	fwdCell  []stbus.Cell
	fwdOwner []int

	out Outputs

	// Cycle plan, valid between Plan and Commit.
	granted   []int // route per initiator, routeIdle when not granted
	pickedSrc []int // chosen response source per initiator, -1 none
	scrReq    []arb.Input
	scrResp   []arb.Input
	scrRespG  arb.Input
}

// NewEngine builds the model of cfg with bugs seeded.
func NewEngine(cfg nodespec.Config, bugs Bugs) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, bugs: bugs}
	nI, nT := cfg.NumInit, cfg.NumTgt
	if cfg.ReqArb == arb.Programmable {
		e.prog = arb.NewProgrammable(cfg.DefaultPriorities())
	}
	mkReq := func() arb.Policy {
		if e.prog != nil {
			return e.prog
		}
		p := arb.New(cfg.ReqArb, nI)
		if bugs.LRUInit && cfg.ReqArb == arb.LRU {
			// Seeded bug 1: the reset state marks port 0 as just used.
			p.Tick(arb.Input{Req: make([]bool, nI)}, 0)
		}
		return p
	}
	for t := 0; t <= nT; t++ {
		e.reqArbs = append(e.reqArbs, mkReq())
		e.scrReq = append(e.scrReq, arb.Input{Req: make([]bool, nI), Pri: make([]uint8, nI)})
	}
	for i := 0; i < nI; i++ {
		e.respArbs = append(e.respArbs, arb.New(cfg.RespArb, nT+1))
		e.scrResp = append(e.scrResp, arb.Input{Req: make([]bool, nT+1)})
	}
	e.respGlob = arb.New(cfg.RespArb, nI)
	e.scrRespG = arb.Input{Req: make([]bool, nI)}
	e.regs = cfg.DefaultPriorities()

	e.pktRoute = make([]int, nI)
	e.granted = make([]int, nI)
	e.pickedSrc = make([]int, nI)
	for i := range e.pktRoute {
		e.pktRoute[i] = routeIdle
	}
	e.srcOwner = make(map[uint8]int)
	e.pktCells = make([][]stbus.Cell, nI)
	e.inflight = make([][]int, nI)
	e.intQ = make([][]stbus.RespCell, nI)
	e.rspBusy = make([]bool, nI)
	e.rspCell = make([]stbus.RespCell, nI)
	e.rspFrom = make([]int, nI)
	e.rspHold = make([]bool, nI)
	e.fwdBusy = make([]bool, nT)
	e.fwdCell = make([]stbus.Cell, nT)
	e.fwdOwner = make([]int, nT)
	for t := range e.fwdOwner {
		e.fwdOwner[t] = -1
	}
	e.out = Outputs{
		Gnt: make([]bool, nI), RGnt: make([]bool, nT),
		TgtReq: make([]bool, nT), TgtCell: make([]stbus.Cell, nT),
		InitRsp: make([]bool, nI), InitRC: make([]stbus.RespCell, nI),
	}
	return e, nil
}

// source maps a route to the response-source index used by the response
// path and the ordering rule.
func (e *Engine) source(route int) int {
	if route >= 0 {
		return route
	}
	return e.cfg.NumTgt
}

// route decodes the first cell of a packet from initiator i.
func (e *Engine) route(i int, addr uint64) int {
	c := &e.cfg
	if c.ProgPort && addr >= c.ProgBase && addr < c.ProgBase+uint64(4*c.NumInit) {
		return intProg
	}
	t := c.Map.Route(addr)
	if t < 0 || !c.Connected(i, t) {
		return intErr
	}
	return t
}

// pipeLimit is the outstanding-packet bound (seeded bug 3 widens it).
func (e *Engine) pipeLimit() int {
	if e.bugs.PipeOffByOne {
		return e.cfg.PipeSize + 1
	}
	return e.cfg.PipeSize
}

// mayOpen checks the first-cell conditions shared by every route: ordering
// (Type 2) and the pipe bound.
func (e *Engine) mayOpen(i, src int) bool {
	if e.cfg.Port.Type == stbus.Type2 && !e.bugs.T2OrderIgnored {
		for _, s := range e.inflight[i] {
			if s != src {
				return false
			}
		}
	}
	return len(e.inflight[i]) < e.pipeLimit()
}

// fwdFree reports whether target t's forwarding slot can take a cell this
// cycle.
func (e *Engine) fwdFree(t int, in *Inputs) bool {
	return !e.fwdBusy[t] || in.TgtGnt[t]
}

// Plan computes the cycle's grants from the settled inputs; it is pure with
// respect to engine state and may be called repeatedly until the inputs
// settle. The final call's plan is consumed by Commit.
func (e *Engine) Plan(in *Inputs) {
	nI, nT := e.cfg.NumInit, e.cfg.NumTgt
	// Request side: collect each initiator's wish.
	for i := 0; i < nI; i++ {
		e.granted[i] = routeIdle
		e.out.Gnt[i] = false
		if !in.Req[i] {
			continue
		}
		r := e.pktRoute[i]
		if r == routeIdle { // packet opens this cycle
			r = e.route(i, in.Addr[i])
			if !e.mayOpen(i, e.source(r)) {
				continue
			}
			if r >= 0 && e.fwdOwner[r] != -1 && e.fwdOwner[r] != i {
				continue // target allocated to someone else
			}
		}
		if r >= 0 && !e.fwdFree(r, in) {
			continue
		}
		e.granted[i] = r
	}
	// Request side: arbitrate contenders.
	if e.cfg.Arch == nodespec.SharedBus {
		g := &e.scrReq[nT]
		for i := 0; i < nI; i++ {
			g.Req[i] = e.granted[i] != routeIdle
			g.Pri[i] = in.Pri[i]
		}
		w := e.reqArbs[nT].Pick(*g)
		for i := 0; i < nI; i++ {
			if i != w {
				e.granted[i] = routeIdle
			}
		}
	} else {
		for t := 0; t < nT; t++ {
			sc := &e.scrReq[t]
			for i := 0; i < nI; i++ {
				sc.Req[i] = e.granted[i] == t
				sc.Pri[i] = in.Pri[i]
			}
			w := e.reqArbs[t].Pick(*sc)
			for i := 0; i < nI; i++ {
				if e.granted[i] == t && i != w {
					e.granted[i] = routeIdle
				}
			}
		}
	}
	for i := 0; i < nI; i++ {
		e.out.Gnt[i] = e.granted[i] != routeIdle
	}

	// Response side.
	for t := 0; t < nT; t++ {
		e.out.RGnt[t] = false
	}
	offered := func(i, s int) bool {
		if len(e.inflight[i]) == 0 {
			return false
		}
		if e.rspHold[i] && s != e.rspFrom[i] {
			return false
		}
		if e.cfg.Port.Type == stbus.Type2 && !e.bugs.T2OrderIgnored && s != e.inflight[i][0] {
			return false
		}
		if s == nT {
			return len(e.intQ[i]) > 0
		}
		if !in.TgtRResp[s] {
			return false
		}
		owner, ok := e.srcOwner[in.TgtRSrc[s]]
		return ok && owner == i
	}
	canLoad := func(i int) bool { return !e.rspBusy[i] || in.RGnt[i] }
	pickFor := func(i int) int {
		sc := &e.scrResp[i]
		none := true
		for s := 0; s <= nT; s++ {
			sc.Req[s] = offered(i, s)
			none = none && !sc.Req[s]
		}
		if none {
			return -1
		}
		return e.respArbs[i].Pick(*sc)
	}
	for i := 0; i < nI; i++ {
		e.pickedSrc[i] = -1
	}
	if e.cfg.Arch == nodespec.SharedBus {
		for i := 0; i < nI; i++ {
			e.scrRespG.Req[i] = false
			if !canLoad(i) {
				continue
			}
			for s := 0; s <= nT; s++ {
				if offered(i, s) {
					e.scrRespG.Req[i] = true
					break
				}
			}
		}
		if w := e.respGlob.Pick(e.scrRespG); w >= 0 {
			e.pickedSrc[w] = pickFor(w)
		}
	} else {
		for i := 0; i < nI; i++ {
			if canLoad(i) {
				e.pickedSrc[i] = pickFor(i)
			}
		}
	}
	for i := 0; i < nI; i++ {
		if s := e.pickedSrc[i]; s >= 0 && s < nT {
			e.out.RGnt[s] = true
		}
	}
}

// Commit advances the model by one clock edge. reqCell and respCell fetch
// the full payloads of the cycle's transfers; outputs for the next cycle are
// left in e.out.
func (e *Engine) Commit(in *Inputs, reqCell func(i int) stbus.Cell, respCell func(t int) stbus.RespCell) {
	nI, nT := e.cfg.NumInit, e.cfg.NumTgt
	// Forwarding slots drained by targets.
	for t := 0; t < nT; t++ {
		if e.fwdBusy[t] && e.out.TgtReq[t] && in.TgtGnt[t] {
			e.fwdBusy[t] = false
		}
	}
	// Responses delivered to initiators.
	for i := 0; i < nI; i++ {
		if e.rspBusy[i] && e.out.InitRsp[i] && in.RGnt[i] {
			if e.rspCell[i].EOP {
				e.retire(i, e.rspFrom[i])
				e.rspHold[i] = false
			}
			e.rspBusy[i] = false
		}
	}
	// Granted request cells.
	for i := 0; i < nI; i++ {
		r := e.granted[i]
		if r == routeIdle || !in.Req[i] {
			continue
		}
		cell := reqCell(i)
		opening := e.pktRoute[i] == routeIdle
		if opening {
			e.inflight[i] = append(e.inflight[i], e.source(r))
			e.srcOwner[cell.Src] = i
		}
		e.pktCells[i] = append(e.pktCells[i], cell)
		if r >= 0 {
			if opening {
				// Defensive chunk release if the owner went elsewhere.
				for u := 0; u < nT; u++ {
					if u != r && e.fwdOwner[u] == i {
						e.fwdOwner[u] = -1
					}
				}
			}
			e.fwdCell[r] = cell
			e.fwdBusy[r] = true
			e.fwdOwner[r] = i
			if cell.EOP && (!cell.Lck || e.bugs.ChunkLckIgnored) {
				// Seeded bug 2: lck ignored, allocation always released.
				e.fwdOwner[r] = -1
			}
		}
		if cell.EOP {
			if r < 0 {
				e.service(i, r)
			}
			// service copies what it keeps, so the buffer is reused.
			e.pktCells[i] = e.pktCells[i][:0]
			e.pktRoute[i] = routeIdle
		} else {
			e.pktRoute[i] = r
		}
	}
	// Accepted response cells.
	for i := 0; i < nI; i++ {
		s := e.pickedSrc[i]
		if s < 0 {
			continue
		}
		var cell stbus.RespCell
		if s < nT {
			if !(in.TgtRResp[s] && e.out.RGnt[s]) {
				continue
			}
			cell = respCell(s)
		} else {
			cell = e.intQ[i][0]
			e.intQ[i] = e.intQ[i][1:]
		}
		e.rspCell[i] = cell
		e.rspBusy[i] = true
		e.rspFrom[i] = s
		e.rspHold[i] = !cell.EOP
	}
	// Arbiter clocks.
	if e.cfg.Arch == nodespec.SharedBus {
		w := -1
		for i := 0; i < nI; i++ {
			if e.out.Gnt[i] {
				w = i
			}
		}
		e.reqArbs[nT].Tick(e.scrReq[nT], w)
		wr := -1
		for i := 0; i < nI; i++ {
			if e.pickedSrc[i] >= 0 {
				wr = i
			}
		}
		e.respGlob.Tick(e.scrRespG, wr)
	} else {
		for t := 0; t < nT; t++ {
			w := -1
			for i := 0; i < nI; i++ {
				if e.out.Gnt[i] && e.granted[i] == t {
					w = i
				}
			}
			e.reqArbs[t].Tick(e.scrReq[t], w)
		}
	}
	for i := 0; i < nI; i++ {
		e.respArbs[i].Tick(e.scrResp[i], e.pickedSrc[i])
	}
	// Next-cycle drives.
	for t := 0; t < nT; t++ {
		e.out.TgtReq[t] = e.fwdBusy[t]
		if e.fwdBusy[t] {
			e.out.TgtCell[t] = e.fwdCell[t]
		} else {
			e.out.TgtCell[t] = stbus.Cell{}
		}
	}
	for i := 0; i < nI; i++ {
		e.out.InitRsp[i] = e.rspBusy[i]
		if e.rspBusy[i] {
			e.out.InitRC[i] = e.rspCell[i]
		} else {
			e.out.InitRC[i] = stbus.RespCell{}
		}
	}
}

// retire pops the oldest inflight entry from the given source.
func (e *Engine) retire(i, src int) {
	fl := e.inflight[i]
	for k, s := range fl {
		if s == src {
			e.inflight[i] = append(fl[:k], fl[k+1:]...)
			return
		}
	}
}

// service answers a packet routed to an internal service (error responder or
// register decoder) at the edge completing it.
func (e *Engine) service(i, route int) {
	c := &e.cfg
	cells := e.pktCells[i]
	head := cells[0]
	tid := head.TID
	if e.bugs.ErrRespTIDZero {
		tid = 0 // Seeded bug 4: error path loses the transaction tag.
	}
	errPkt := func() []stbus.RespCell {
		pkt, err := stbus.BuildResponse(c.Port.Type, c.Port.Endian, head.Opc, head.Addr, nil,
			c.Port.BusBytes(), tid, head.Src, true)
		if err != nil {
			pkt = []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: tid, Src: head.Src}}
		}
		return pkt
	}
	if route == intErr {
		e.intQ[i] = append(e.intQ[i], errPkt()...)
		return
	}
	reg := int(head.Addr-c.ProgBase) / 4
	switch {
	case head.Opc == stbus.ST4 && reg < c.NumInit:
		v := stbus.ExtractWriteData(c.Port.Endian, cells, c.Port.BusBytes())[0] & 0xf
		e.regs[reg] = v
		if e.prog != nil {
			if err := e.prog.SetPriority(reg, v); err != nil {
				e.intQ[i] = append(e.intQ[i], errPkt()...)
				return
			}
		}
		pkt, _ := stbus.BuildResponse(c.Port.Type, c.Port.Endian, head.Opc, head.Addr, nil,
			c.Port.BusBytes(), head.TID, head.Src, false)
		e.intQ[i] = append(e.intQ[i], pkt...)
	case head.Opc == stbus.LD4 && reg < c.NumInit:
		pkt, _ := stbus.BuildResponse(c.Port.Type, c.Port.Endian, head.Opc, head.Addr,
			[]byte{e.regs[reg], 0, 0, 0}, c.Port.BusBytes(), head.TID, head.Src, false)
		e.intQ[i] = append(e.intQ[i], pkt...)
	default:
		e.intQ[i] = append(e.intQ[i], errPkt()...)
	}
}

// Out returns the engine's live output record: grants from the last Plan and
// registered drives from the last Commit.
func (e *Engine) Out() *Outputs { return &e.out }

func (e *Engine) String() string {
	return fmt.Sprintf("bca engine %s bugs=%v", e.cfg.Name, e.bugs.List())
}
