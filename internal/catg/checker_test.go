package catg

import (
	"testing"

	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// scriptStep fully specifies one cycle at a port, both directions — the test
// plays DUT and harness at once to hit checker rules precisely.
type scriptStep struct {
	req, gnt   bool
	cell       stbus.Cell
	rreq, rgnt bool
	resp       stbus.RespCell
}

// sample is the port sample the step puts on the wires.
func (s scriptStep) sample() PortSample {
	ps := PortSample{Req: s.req, Gnt: s.gnt, RReq: s.rreq, RGnt: s.rgnt}
	if s.req {
		ps.Cell = s.cell
	}
	if s.rreq {
		ps.Resp = s.resp
	}
	return ps
}

// checkerScript is one directed script: the port's protocol type, the
// node's target count and the cycles to replay on its initiator side.
type checkerScript struct {
	typ   stbus.Type
	nTgt  int
	steps []scriptStep
}

func (sc checkerScript) cfg() nodespec.Config {
	cfg := nodeCfg(1, sc.nTgt)
	cfg.Port.Type = sc.typ
	return cfg
}

// checkerScripts are the checker tests' scripts; FuzzPortChecker seeds
// from them.
var checkerScripts = map[string]checkerScript{
	"t1-single-outstanding": {stbus.Type1, 1, []scriptStep{
		{req: true, gnt: true, cell: ld4Cell(0x1000, 0)}, // first op granted
		{req: true, gnt: true, cell: ld4Cell(0x1004, 1)}, // second before a response: illegal on T1
	}},
	"t1-legal": {stbus.Type1, 1, []scriptStep{
		{req: true, gnt: true, cell: ld4Cell(0x1000, 0)},
		{rreq: true, rgnt: true, resp: okResp(0)},
		{req: true, gnt: true, cell: ld4Cell(0x1004, 1)},
		{rreq: true, rgnt: true, resp: okResp(1)},
	}},
	// LD8 expects a 2-cell response on a 32-bit Type 3 port; deliver a
	// 1-cell one.
	"resp-length": {stbus.Type3, 1, []scriptStep{
		{req: true, gnt: true, cell: stbus.Cell{Opc: stbus.LD8, Addr: 0x1000, BE: 0xf, EOP: true, TID: 3}},
		{rreq: true, rgnt: true, resp: stbus.RespCell{ROpc: stbus.RespData, EOP: true, TID: 3}},
	}},
	// Two LD8s outstanding; their response packets interleave cell-wise.
	"resp-interleave": {stbus.Type3, 1, []scriptStep{
		{req: true, gnt: true, cell: stbus.Cell{Opc: stbus.LD8, Addr: 0x1000, BE: 0xf, EOP: true, TID: 1}},
		{req: true, gnt: true, cell: stbus.Cell{Opc: stbus.LD8, Addr: 0x1008, BE: 0xf, EOP: true, TID: 2}},
		{rreq: true, rgnt: true, resp: stbus.RespCell{ROpc: stbus.RespData, TID: 1}}, // first cell of resp 1
		{rreq: true, rgnt: true, resp: stbus.RespCell{ROpc: stbus.RespData, TID: 2}}, // interleaved!
		{rreq: true, rgnt: true, resp: stbus.RespCell{ROpc: stbus.RespData, EOP: true, TID: 1}},
	}},
	"resp-orphan": {stbus.Type2, 1, []scriptStep{
		{rreq: true, rgnt: true, resp: okResp(0)}, // response with nothing outstanding
	}},
	"err-expected": {stbus.Type3, 1, []scriptStep{
		{req: true, gnt: true, cell: ld4Cell(0x9000, 5)}, // unmapped address
		{rreq: true, rgnt: true, resp: okResp(5)},        // answered WITHOUT error flag
	}},
	"chunk-break": {stbus.Type3, 2, []scriptStep{
		{req: true, gnt: true, cell: lckCell(ld4Cell(0x1000, 0))}, // chunk opened toward target 0
		{req: true, gnt: true, cell: ld4Cell(0x2000, 1)},          // next packet jumps to target 1
	}},
	"opcode-change": {stbus.Type3, 1, []scriptStep{
		{req: true, gnt: true, cell: stbus.Cell{Opc: stbus.ST8, Addr: 0x1000, BE: 0xf, TID: 1}},
		{req: true, gnt: true, cell: stbus.Cell{Opc: stbus.ST4, Addr: 0x1004, BE: 0xf, EOP: true, TID: 1}},
	}},
	// Holding a stable request through several ungranted cycles is legal.
	"clean-wait": {stbus.Type3, 1, []scriptStep{
		{req: true, gnt: false, cell: ld4Cell(0x1000, 0)},
		{req: true, gnt: false, cell: ld4Cell(0x1000, 0)},
		{req: true, gnt: true, cell: ld4Cell(0x1000, 0)},
		{rreq: true, rgnt: true, resp: okResp(0)},
	}},
}

// runScript replays steps on a fresh port, three idle cycles after them,
// with a checker stepped on the port's samples.
func runScript(t *testing.T, cfg nodespec.Config, initiatorSide bool, steps []scriptStep) *Checker {
	t.Helper()
	ck, err := scriptOnPort(cfg, initiatorSide, steps)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// scriptOnPort drives steps on a port in a simulator, both directions, and
// steps a checker on what SamplePort reads off the wires each cycle.
func scriptOnPort(cfg nodespec.Config, initiatorSide bool, steps []scriptStep) (*Checker, error) {
	sm := sim.New()
	p := stbus.NewPort(sim.Root(sm), "p", cfg.Port)
	var route RouteFunc
	if initiatorSide {
		route = NodeRouter(cfg, 0)
	}
	ck := NewChecker(p.Name, cfg, initiatorSide, route)
	idx := 0
	sm.Seq("script", func() {
		var s scriptStep
		if idx < len(steps) {
			s = steps[idx]
			idx++
		}
		if s.req {
			p.DriveCell(s.cell)
		} else {
			p.IdleReq()
		}
		p.Gnt.SetBool(s.gnt)
		if s.rreq {
			p.DriveResp(s.resp)
		} else {
			p.IdleResp()
		}
		p.RGnt.SetBool(s.rgnt)
	})
	sm.AtCycleEnd(func() {
		s := SamplePort(p)
		ck.Step(&s)
	})
	return ck, sm.Run(len(steps) + 3)
}

func hasRule(ck *Checker, rule string) bool {
	for _, v := range ck.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

func ld4Cell(addr uint64, tid uint8) stbus.Cell {
	return stbus.Cell{Opc: stbus.LD4, Addr: addr, BE: 0xf, EOP: true, TID: tid}
}

func lckCell(c stbus.Cell) stbus.Cell {
	c.Lck = true
	return c
}

func okResp(tid uint8) stbus.RespCell {
	return stbus.RespCell{ROpc: stbus.RespData, EOP: true, TID: tid}
}

// runNamed replays the named script on its configuration's initiator side.
func runNamed(t *testing.T, name string) *Checker {
	t.Helper()
	sc := checkerScripts[name]
	return runScript(t, sc.cfg(), true, sc.steps)
}

func TestCheckerT1SingleOutstanding(t *testing.T) {
	ck := runNamed(t, "t1-single-outstanding")
	if !hasRule(ck, "t1-outstanding") {
		t.Errorf("T1 double-outstanding not flagged: %v", ck.Violations)
	}
}

func TestCheckerT1LegalSequence(t *testing.T) {
	ck := runNamed(t, "t1-legal")
	if len(ck.Violations) != 0 {
		t.Errorf("legal T1 sequence flagged: %v", ck.Violations)
	}
}

func TestCheckerRespLength(t *testing.T) {
	ck := runNamed(t, "resp-length")
	if !hasRule(ck, "resp-length") {
		t.Errorf("short response packet not flagged: %v", ck.Violations)
	}
}

func TestCheckerRespInterleave(t *testing.T) {
	ck := runNamed(t, "resp-interleave")
	if !hasRule(ck, "resp-interleave") {
		t.Errorf("interleaved response not flagged: %v", ck.Violations)
	}
}

func TestCheckerRespOrphan(t *testing.T) {
	ck := runNamed(t, "resp-orphan")
	if !hasRule(ck, "resp-orphan") {
		t.Errorf("orphan response not flagged: %v", ck.Violations)
	}
}

func TestCheckerErrExpectedOnUnmapped(t *testing.T) {
	ck := runNamed(t, "err-expected")
	if !hasRule(ck, "err-expected") {
		t.Errorf("missing error flag on unmapped access not flagged: %v", ck.Violations)
	}
}

func TestCheckerChunkBreakAcrossTargets(t *testing.T) {
	ck := runNamed(t, "chunk-break")
	if !hasRule(ck, "chunk-break") {
		t.Errorf("chunk target switch not flagged: %v", ck.Violations)
	}
}

func TestCheckerOpcodeChangeMidPacket(t *testing.T) {
	ck := runNamed(t, "opcode-change")
	if !hasRule(ck, "opcode-change") {
		t.Errorf("opcode change mid-packet not flagged: %v", ck.Violations)
	}
}

func TestCheckerCleanWaitState(t *testing.T) {
	ck := runNamed(t, "clean-wait")
	if len(ck.Violations) != 0 {
		t.Errorf("stable wait flagged: %v", ck.Violations)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Cycle: 7, Port: "node.init0", Rule: "stability", Detail: "x"}
	s := v.String()
	for _, want := range []string{"7", "node.init0", "stability"} {
		if indexOf(s, want) < 0 {
			t.Errorf("violation string %q missing %q", s, want)
		}
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
