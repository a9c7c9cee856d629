package stbus

import (
	"fmt"
	"strings"

	"crve/internal/sim"
)

// Bind wires two port bundles back to back: initSide is the interface where
// a component plays the initiator role (it drives req, the request payload
// and r_gnt), tgtSide the interface where the other component plays the
// target role (it drives gnt, r_req and the response payload). Bind installs
// two combinational copy processes, the signal-level equivalent of the port
// map in a structural HDL netlist, letting nodes, converters and memories —
// each of which creates its own port bundle — compose into hierarchical
// interconnects like the paper's Figure 1.
func Bind(sm *sim.Simulator, initSide, tgtSide *Port) {
	if initSide.Cfg != tgtSide.Cfg {
		panic(fmt.Sprintf("stbus: binding incompatible ports %s (%v) and %s (%v): %s",
			initSide.Name, initSide.Cfg, tgtSide.Name, tgtSide.Cfg,
			strings.Join(initSide.Cfg.Diff(tgtSide.Cfg), ", ")))
	}
	fwd := [][2]*sim.Signal{
		{initSide.Req, tgtSide.Req}, {initSide.Opc, tgtSide.Opc}, {initSide.Add, tgtSide.Add},
		{initSide.Data, tgtSide.Data}, {initSide.BE, tgtSide.BE}, {initSide.EOP, tgtSide.EOP},
		{initSide.Lck, tgtSide.Lck}, {initSide.TID, tgtSide.TID}, {initSide.Src, tgtSide.Src},
		{initSide.Pri, tgtSide.Pri}, {initSide.RGnt, tgtSide.RGnt},
	}
	bwd := [][2]*sim.Signal{
		{tgtSide.Gnt, initSide.Gnt}, {tgtSide.RReq, initSide.RReq}, {tgtSide.ROpc, initSide.ROpc},
		{tgtSide.RData, initSide.RData}, {tgtSide.REOP, initSide.REOP},
		{tgtSide.RTID, initSide.RTID}, {tgtSide.RSrc, initSide.RSrc},
	}
	copyProc := func(name string, pairs [][2]*sim.Signal) {
		// Each pair copies its source onto its destination; declaring the
		// destinations lets the levelized scheduler rank the copy exactly.
		srcs := make([]*sim.Signal, len(pairs))
		dsts := make([]*sim.Signal, len(pairs))
		for i, p := range pairs {
			srcs[i], dsts[i] = p[0], p[1]
		}
		sm.CombOut(name, func() {
			for _, p := range pairs {
				p[1].Set(p[0].Get())
			}
		}, dsts, srcs...)
	}
	copyProc("bind."+initSide.Name+">"+tgtSide.Name, fwd)
	copyProc("bind."+tgtSide.Name+">"+initSide.Name, bwd)
}
