package bca

import (
	"testing"

	"crve/internal/stbus"
)

func TestEngineFacadeBasicGrant(t *testing.T) {
	cfg := cfg3(2, 1)
	eng, err := NewEngine(cfg, Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInputs(cfg.WithDefaults())
	// Both initiators request target 0; priority policy grants initiator 0.
	in.Req[0], in.Req[1] = true, true
	in.Addr[0], in.Addr[1] = 0x1000, 0x1004
	in.EOP[0], in.EOP[1] = true, true
	in.RGnt[0], in.RGnt[1] = true, true
	in.TgtGnt[0] = true
	eng.Plan(in)
	out := eng.Out()
	if !out.Gnt[0] || out.Gnt[1] {
		t.Fatalf("grants = %v, want initiator 0 only", out.Gnt)
	}
	cell := stbus.Cell{Opc: stbus.LD4, Addr: 0x1000, BE: 0xf, EOP: true, TID: 1, Src: 0}
	eng.Commit(in,
		func(int) stbus.Cell { return cell },
		func(int) stbus.RespCell { return stbus.RespCell{} })
	if len(eng.inflight[0]) != 1 || len(eng.inflight[1]) != 0 {
		t.Errorf("inflight %d/%d", len(eng.inflight[0]), len(eng.inflight[1]))
	}
	if !out.TgtReq[0] || out.TgtCell[0] != cell {
		t.Errorf("forwarding stage not loaded: %v %v", out.TgtReq[0], out.TgtCell[0])
	}
}

func TestEngineFacadeNoGrantWithoutRequest(t *testing.T) {
	cfg := cfg3(2, 2)
	eng, err := NewEngine(cfg, Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInputs(cfg.WithDefaults())
	eng.Plan(in)
	for i, g := range eng.Out().Gnt {
		if g {
			t.Errorf("grant to idle initiator %d", i)
		}
	}
}

func TestEngineFacadeRejectsBadConfig(t *testing.T) {
	cfg := cfg3(0, 1)
	if _, err := NewEngine(cfg, Bugs{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEngineStringAndWrappedString(t *testing.T) {
	eng, err := NewEngine(cfg3(1, 1), Bugs{LRUInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.String() == "" {
		t.Error("engine String empty")
	}
}
