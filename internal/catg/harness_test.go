package catg

import (
	"testing"

	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// buildLoop wires a BFM pair (initiator + target) back to back through a
// trivially permissive port: the initiator's port doubles as the target's.
func buildLoop(t *testing.T, tgtCfg TargetConfig, ops []Op, seed int64) (*sim.Simulator, *InitiatorBFM, *TargetBFM) {
	t.Helper()
	sm := sim.New()
	p := stbus.NewPort(sim.Root(sm), "loop", stbus.PortConfig{Type: stbus.Type3, DataBits: 32})
	bfm := NewInitiatorBFM(sm, p, ops)
	tgt := NewTargetBFM(sm, p, tgtCfg, seed)
	return sm, bfm, tgt
}

func TestInitiatorBFMDrivesAllOpsAndCompletes(t *testing.T) {
	cfg := nodeCfg(1, 1)
	ops := GenerateOps(cfg, TrafficConfig{Ops: 12, IdlePct: 30}, 0, 7)
	sm, bfm, _ := buildLoop(t, TargetConfig{MinLatency: 1, MaxLatency: 3}, ops, 3)
	if err := sm.RunUntil(bfm.Done, 3000); err != nil {
		t.Fatal(err)
	}
	if bfm.core.sent != 12 || bfm.core.received != 12 {
		t.Errorf("sent %d received %d, want 12/12", bfm.core.sent, bfm.core.received)
	}
}

func TestInitiatorBFMInsertsIdleGaps(t *testing.T) {
	cfg := nodeCfg(1, 1)
	// Force every op to have an idle gap.
	ops := GenerateOps(cfg, TrafficConfig{Ops: 10, IdlePct: 100, Sizes: []int{4}}, 0, 7)
	gapsDeclared := 0
	for _, o := range ops {
		if o.IdleBefore > 0 {
			gapsDeclared++
		}
	}
	if gapsDeclared < 8 {
		t.Fatalf("only %d declared gaps with IdlePct=100", gapsDeclared)
	}
	sm, bfm, _ := buildLoop(t, TargetConfig{}, ops, 3)
	idleCycles := 0
	sm.AtCycleEnd(func() {
		if !bfm.Port.Req.Bool() && !bfm.Done() {
			idleCycles++
		}
	})
	if err := sm.RunUntil(bfm.Done, 3000); err != nil {
		t.Fatal(err)
	}
	if idleCycles == 0 {
		t.Error("no idle cycles observed despite IdleBefore gaps")
	}
}

func TestTargetBFMQueueDepthBackpressure(t *testing.T) {
	cfg := nodeCfg(1, 1)
	// Slow target with depth 1: at most one packet in flight inside it.
	ops := GenerateOps(cfg, TrafficConfig{Ops: 6, Sizes: []int{4}}, 0, 2)
	sm, bfm, tgt := buildLoop(t, TargetConfig{MinLatency: 10, MaxLatency: 10, QueueDepth: 1}, ops, 5)
	maxQ := 0
	sm.AtCycleEnd(func() {
		if n := len(tgt.core.queue); n > maxQ {
			maxQ = n
		}
	})
	if err := sm.RunUntil(bfm.Done, 5000); err != nil {
		t.Fatal(err)
	}
	if maxQ > 1 {
		t.Errorf("target queue reached %d with depth 1", maxQ)
	}
}

func TestTargetBFMMemorySemantics(t *testing.T) {
	sm := sim.New()
	p := stbus.NewPort(sim.Root(sm), "loop", stbus.PortConfig{Type: stbus.Type3, DataBits: 32})
	tgt := NewTargetBFM(sm, p, TargetConfig{MinLatency: 1, MaxLatency: 1}, 9)
	payload := []byte{4, 3, 2, 1}
	st, err := stbus.BuildRequest(stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x40, payload, 4, 1, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := stbus.BuildRequest(stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x40, nil, 4, 2, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	bfm := NewInitiatorBFM(sm, p, []Op{{Cells: st}, {Cells: ld}})
	if err := sm.RunUntil(bfm.Done, 500); err != nil {
		t.Fatal(err)
	}
	if tgt.Peek(0x40) != 4 || tgt.Peek(0x43) != 1 {
		t.Errorf("memory state %x %x", tgt.Peek(0x40), tgt.Peek(0x43))
	}
}

func TestTargetBFMDeterministicTiming(t *testing.T) {
	cfg := nodeCfg(1, 1)
	run := func() uint64 {
		ops := GenerateOps(cfg, TrafficConfig{Ops: 15}, 0, 4)
		sm, bfm, _ := buildLoop(t, TargetConfig{MinLatency: 0, MaxLatency: 8, GntGapPct: 40}, ops, 77)
		if err := sm.RunUntil(bfm.Done, 5000); err != nil {
			t.Fatal(err)
		}
		return sm.Cycle()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different drain: %d vs %d", a, b)
	}
}

// TestBFMAgainstRealNodeIsLossless cross-checks the BFM bookkeeping against
// monitor counts on a real DUT.
func TestBFMAgainstRealNodeIsLossless(t *testing.T) {
	cfg := nodeCfg(2, 2)
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bfms []*InitiatorBFM
	for i, p := range n.Init {
		bfms = append(bfms, NewInitiatorBFM(sm, p, GenerateOps(cfg, TrafficConfig{Ops: 20}, i, 6)))
	}
	mons := attachEnv(sm, cfg, TrafficConfig{}, n.Init).Asm
	for tg, p := range n.Tgt {
		NewTargetBFM(sm, p, TargetConfig{MinLatency: 1, MaxLatency: 4}, int64(tg))
	}
	done := func() bool { return bfms[0].Done() && bfms[1].Done() }
	if err := sm.RunUntil(done, 20000); err != nil {
		t.Fatal(err)
	}
	if err := sm.Run(3); err != nil {
		t.Fatal(err)
	}
	for i, m := range mons {
		if len(m.Completed) != bfms[i].core.sent {
			t.Errorf("initiator %d: monitor saw %d txs, BFM sent %d",
				i, len(m.Completed), bfms[i].core.sent)
		}
		if len(m.pending) != 0 {
			t.Errorf("initiator %d: %d transactions never completed", i, len(m.pending))
		}
	}
}
