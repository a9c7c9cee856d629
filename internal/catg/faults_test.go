package catg

import (
	"testing"

	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// TestFaultRigQualifiesEveryCheckerRule is the verification-of-the-
// verification suite: for every injectable protocol fault, the port checker
// must flag exactly the rule the fault targets. This is how the paper's flow
// debugs the environment itself before trusting it on the models.
func TestFaultRigQualifiesEveryCheckerRule(t *testing.T) {
	for _, f := range AllFaults() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			cfg := nodeCfg(1, 1)
			sm := sim.New()
			n, err := rtl.NewNode(sim.Root(sm), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Multi-cell stores so packet-shape faults have room, plus a
			// slow target so handshake faults get a waiting window.
			tc := TrafficConfig{Ops: 8, Kinds: []stbus.OpKind{stbus.KindStore}, Sizes: []int{16}}
			ops := GenerateOps(cfg, tc, 0, 11)
			ops = InjectFault(ops, 2, f)
			ck := attachEnv(sm, cfg, tc, n.Init).Checkers[0]
			NewTargetBFM(sm, n.Tgt[0], TargetConfig{MinLatency: 4, MaxLatency: 4, GntGapPct: 60}, 3)
			bfm := NewFaultyInitiatorBFM(sm, n.Init[0], ops, f, 2)
			// A violated protocol may wedge the DUT; run bounded.
			_ = sm.RunUntil(bfm.Done, 4000)
			found := false
			for _, v := range ck.Violations {
				if v.Rule == f.CheckerRule() {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("fault %v did not trigger rule %q; violations: %v",
					f, f.CheckerRule(), ck.Violations)
			}
		})
	}
}

// TestFaultRigCleanWhenNoFault: the rig with FaultNone behaves like a plain
// BFM and triggers nothing.
func TestFaultRigCleanWhenNoFault(t *testing.T) {
	cfg := nodeCfg(1, 1)
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := GenerateOps(cfg, TrafficConfig{Ops: 10}, 0, 4)
	ck := attachEnv(sm, cfg, TrafficConfig{}, n.Init).Checkers[0]
	NewTargetBFM(sm, n.Tgt[0], TargetConfig{MinLatency: 2, MaxLatency: 4}, 3)
	bfm := NewFaultyInitiatorBFM(sm, n.Init[0], ops, FaultNone, 2)
	if err := sm.RunUntil(bfm.Done, 4000); err != nil {
		t.Fatal(err)
	}
	if len(ck.Violations) != 0 {
		t.Errorf("clean rig triggered: %v", ck.Violations)
	}
	if bfm.Injected() {
		t.Error("FaultNone should never inject")
	}
}

func TestInjectFaultLeavesOriginalUntouched(t *testing.T) {
	cfg := nodeCfg(1, 1)
	ops := GenerateOps(cfg, TrafficConfig{Ops: 5, Kinds: []stbus.OpKind{stbus.KindStore}, Sizes: []int{16}}, 0, 9)
	origLen := len(ops[2].Cells)
	mut := InjectFault(ops, 2, FaultShortPacket)
	if len(ops[2].Cells) != origLen {
		t.Error("InjectFault mutated the source stream")
	}
	if len(mut[2].Cells) != origLen-1 {
		t.Errorf("short-packet fault: %d cells, want %d", len(mut[2].Cells), origLen-1)
	}
	// Out-of-range packet index is a no-op.
	same := InjectFault(ops, 99, FaultShortPacket)
	if len(same[2].Cells) != origLen {
		t.Error("out-of-range injection should be a no-op")
	}
}

func TestFaultStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range AllFaults() {
		if f.String() == "" || seen[f.String()] {
			t.Errorf("bad fault name %q", f.String())
		}
		seen[f.String()] = true
		if f.CheckerRule() == "" {
			t.Errorf("fault %v has no rule", f)
		}
	}
	if FaultNone.CheckerRule() != "" || FaultNone.String() != "none" {
		t.Error("FaultNone descriptors")
	}
}
