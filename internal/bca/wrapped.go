package bca

import (
	"fmt"

	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// Node is the BCA model wrapped for the common verification environment: a
// signal-level shell around the transaction engine, playing the role of the
// paper's SystemC-top + VHDL-wrapper stack (Figure 3). Its port interface is
// identical to the RTL view's, so the same testbench plugs into either.
type Node struct {
	Cfg  nodespec.Config
	Bugs Bugs
	Init []*stbus.Port
	Tgt  []*stbus.Port

	eng  *Engine
	in   *Inputs
	tick *sim.Signal
}

// NewNode elaborates a wrapped BCA node under scope sc.
func NewNode(sc sim.Scope, cfg nodespec.Config, bugs Bugs) (*Node, error) {
	eng, err := NewEngine(cfg, bugs)
	if err != nil {
		return nil, err
	}
	cfg = eng.cfg
	ns := sc.Sub(cfg.Name)
	n := &Node{Cfg: cfg, Bugs: bugs, eng: eng, in: NewInputs(cfg)}
	for i := 0; i < cfg.NumInit; i++ {
		n.Init = append(n.Init, stbus.NewPort(ns, fmt.Sprintf("init%d", i), cfg.Port))
	}
	for t := 0; t < cfg.NumTgt; t++ {
		n.Tgt = append(n.Tgt, stbus.NewPort(ns, fmt.Sprintf("tgt%d", t), cfg.Port))
	}
	n.tick = ns.Signal("tick", 32)
	sens := []*sim.Signal{n.tick}
	var outs []*sim.Signal
	for _, p := range n.Init {
		sens = append(sens, p.Req, p.Add, p.EOP, p.Lck, p.Pri, p.RGnt)
		outs = append(outs, p.Gnt)
	}
	for _, p := range n.Tgt {
		sens = append(sens, p.Gnt, p.RReq, p.RSrc)
		outs = append(outs, p.RGnt)
	}
	ns.CombOut("plan", n.comb, outs, sens...)
	ns.Seq("commit", n.seq)
	return n, nil
}

// Ports returns every external port, initiators first.
func (n *Node) Ports() []*stbus.Port {
	out := append([]*stbus.Port{}, n.Init...)
	return append(out, n.Tgt...)
}

// readInputs refreshes the engine input record from the settled signals.
func (n *Node) readInputs() {
	for i, p := range n.Init {
		n.in.Req[i] = p.Req.Bool()
		n.in.Addr[i] = p.Add.U64()
		n.in.EOP[i] = p.EOP.Bool()
		n.in.Lck[i] = p.Lck.Bool()
		n.in.Pri[i] = uint8(p.Pri.U64())
		n.in.RGnt[i] = p.RGnt.Bool()
	}
	for t, p := range n.Tgt {
		n.in.TgtGnt[t] = p.Gnt.Bool()
		n.in.TgtRResp[t] = p.RReq.Bool()
		n.in.TgtRSrc[t] = uint8(p.RSrc.U64())
	}
}

func (n *Node) comb() {
	n.readInputs()
	n.eng.Plan(n.in)
	for i, p := range n.Init {
		p.Gnt.SetBool(n.eng.out.Gnt[i])
	}
	for t, p := range n.Tgt {
		p.RGnt.SetBool(n.eng.out.RGnt[t])
	}
}

func (n *Node) seq() {
	n.readInputs()
	n.eng.Plan(n.in) // recompute the settled plan against pre-edge inputs
	n.eng.Commit(n.in,
		func(i int) stbus.Cell { return n.Init[i].SampleCell() },
		func(t int) stbus.RespCell { return n.Tgt[t].SampleResp() })
	for t, p := range n.Tgt {
		if n.eng.out.TgtReq[t] {
			p.DriveCell(n.eng.out.TgtCell[t])
		} else {
			p.IdleReq()
		}
	}
	for i, p := range n.Init {
		if n.eng.out.InitRsp[i] {
			p.DriveResp(n.eng.out.InitRC[i])
		} else {
			p.IdleResp()
		}
	}
	n.tick.SetU64(n.tick.U64() + 1)
}
