package catg

import (
	"testing"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// attachEnv builds the observers of node around signal-level ports,
// initiator ports first, and registers a cycle-end hook that reads each port
// once with SamplePort and feeds the samples to Observe.
func attachEnv(sm *sim.Simulator, node nodespec.Config, tc TrafficConfig, ports []*stbus.Port) *Env {
	names := make([]string, len(ports))
	for k, p := range ports {
		names[k] = p.Name
	}
	e := NewEnv(node, tc, names)
	samples := make([]PortSample, len(ports))
	sm.AtCycleEnd(func() {
		for k, p := range ports {
			samples[k] = SamplePort(p)
		}
		e.Observe(samples)
	})
	return e
}

func nodeCfg(nInit, nTgt int) nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: nInit, NumTgt: nTgt,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.Priority, RespArb: arb.Priority,
		Map: stbus.UniformMap(nTgt, 0x1000, 0x1000),
	}.WithDefaults()
}

// bench is a fully assembled CATG environment around a DUT.
type bench struct {
	sm   *sim.Simulator
	bfms []*InitiatorBFM
	env  *Env
	sb   *Scoreboard
	cov  *CoverageModel
}

// buildBench wires CATG components around the given DUT ports (Figure 2).
func buildBench(sm *sim.Simulator, cfg nodespec.Config, tc TrafficConfig, seed int64,
	initPorts, tgtPorts []*stbus.Port) *bench {
	b := &bench{sm: sm}
	for i, p := range initPorts {
		b.bfms = append(b.bfms, NewInitiatorBFM(sm, p, GenerateOps(cfg, tc, i, seed)))
	}
	for t, p := range tgtPorts {
		NewTargetBFM(sm, p, TargetConfig{MinLatency: 1, MaxLatency: 6, GntGapPct: 20}, seed*31+int64(t))
	}
	b.env = attachEnv(sm, cfg, tc, append(append([]*stbus.Port(nil), initPorts...), tgtPorts...))
	b.sb, b.cov = b.env.Scoreboard, b.env.Coverage
	return b
}

func (b *bench) run(t *testing.T, limit int) {
	t.Helper()
	done := func() bool {
		for _, bfm := range b.bfms {
			if !bfm.Done() {
				return false
			}
		}
		return true
	}
	if err := b.sm.RunUntil(done, limit); err != nil {
		t.Fatalf("bench did not drain: %v", err)
	}
	if err := b.sm.Run(10); err != nil { // settle tail
		t.Fatal(err)
	}
}

func (b *bench) violations() []Violation { return b.env.Violations() }

func TestGenerateOpsDeterministic(t *testing.T) {
	cfg := nodeCfg(2, 2)
	tc := TrafficConfig{Ops: 40, UnmappedPct: 5, ChunkPct: 10, IdlePct: 20}
	a := GenerateOps(cfg, tc, 0, 99)
	b := GenerateOps(cfg, tc, 0, 99)
	if len(a) != len(b) || len(a) != 40 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Cells) != len(b[i].Cells) || a[i].IdleBefore != b[i].IdleBefore {
			t.Fatalf("op %d differs", i)
		}
		for j := range a[i].Cells {
			if a[i].Cells[j] != b[i].Cells[j] {
				t.Fatalf("op %d cell %d differs", i, j)
			}
		}
	}
	c := GenerateOps(cfg, tc, 0, 100)
	same := true
	for i := range a {
		if len(a[i].Cells) != len(c[i].Cells) || a[i].Cells[0] != c[i].Cells[0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different traffic")
	}
}

func TestGenerateOpsRespectConstraints(t *testing.T) {
	cfg := nodeCfg(2, 3)
	tc := TrafficConfig{Ops: 60, Targets: []int{1}, Sizes: []int{4}, Kinds: []stbus.OpKind{stbus.KindStore}}
	ops := GenerateOps(cfg, tc, 0, 5)
	for _, o := range ops {
		first := o.Cells[0]
		if first.Opc != stbus.ST4 {
			t.Fatalf("opcode %v, want ST4", first.Opc)
		}
		if r := cfg.Map.Route(first.Addr); r != 1 {
			t.Fatalf("address %#x routed to %d, want 1", first.Addr, r)
		}
	}
}

func TestGenerateOpsChunksStayOnOneTarget(t *testing.T) {
	cfg := nodeCfg(1, 4)
	tc := TrafficConfig{Ops: 50, ChunkPct: 100}
	ops := GenerateOps(cfg, tc, 0, 3)
	for i := 0; i < len(ops); i++ {
		if !ops[i].Cells[len(ops[i].Cells)-1].Lck {
			continue
		}
		if i+1 >= len(ops) {
			t.Fatal("dangling chunk at end of stream")
		}
		t1 := cfg.Map.Route(ops[i].Cells[0].Addr)
		t2 := cfg.Map.Route(ops[i+1].Cells[0].Addr)
		if t1 != t2 {
			t.Fatalf("chunk spans targets %d and %d", t1, t2)
		}
	}
}

func TestBenchRTLCleanRun(t *testing.T) {
	cfg := nodeCfg(3, 2)
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := TrafficConfig{Ops: 40, UnmappedPct: 5, ChunkPct: 10, IdlePct: 15, PriMax: 7}
	b := buildBench(sm, cfg, tc, 1234, n.Init, n.Tgt)
	b.run(t, 40000)
	if vs := b.violations(); len(vs) != 0 {
		t.Fatalf("protocol violations on clean RTL run: %v", vs[0])
	}
	if errs := b.sb.Check(); len(errs) != 0 {
		t.Fatalf("scoreboard errors: %s", errs[0])
	}
	if pct := b.cov.Group.Percent(); pct < 80 {
		t.Errorf("coverage only %.1f%%\n%s", pct, b.cov.Group.Report())
	}
}

func TestBenchBCACleanRun(t *testing.T) {
	cfg := nodeCfg(3, 2)
	sm := sim.New()
	n, err := bca.NewNode(sim.Root(sm), cfg, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	tc := TrafficConfig{Ops: 40, UnmappedPct: 5, ChunkPct: 10, IdlePct: 15, PriMax: 7}
	b := buildBench(sm, cfg, tc, 1234, n.Init, n.Tgt)
	b.run(t, 40000)
	if vs := b.violations(); len(vs) != 0 {
		t.Fatalf("protocol violations on clean BCA run: %v", vs[0])
	}
	if errs := b.sb.Check(); len(errs) != 0 {
		t.Fatalf("scoreboard errors: %s", errs[0])
	}
}

func TestBenchCoverageEqualAcrossViews(t *testing.T) {
	cfg := nodeCfg(2, 2)
	tc := TrafficConfig{Ops: 50, UnmappedPct: 5, ChunkPct: 10, IdlePct: 10}
	runView := func(build func(sm *sim.Simulator) ([]*stbus.Port, []*stbus.Port, error)) *CoverageModel {
		sm := sim.New()
		initP, tgtP, err := build(sm)
		if err != nil {
			t.Fatal(err)
		}
		b := buildBench(sm, cfg, tc, 777, initP, tgtP)
		b.run(t, 40000)
		return b.cov
	}
	covR := runView(func(sm *sim.Simulator) ([]*stbus.Port, []*stbus.Port, error) {
		n, err := rtl.NewNode(sim.Root(sm), cfg)
		if err != nil {
			return nil, nil, err
		}
		return n.Init, n.Tgt, nil
	})
	covB := runView(func(sm *sim.Simulator) ([]*stbus.Port, []*stbus.Port, error) {
		n, err := bca.NewNode(sim.Root(sm), cfg, bca.Bugs{})
		if err != nil {
			return nil, nil, err
		}
		return n.Init, n.Tgt, nil
	})
	if eq, why := covR.Group.EqualHits(covB.Group); !eq {
		t.Errorf("coverage differs between views: %s", why)
	}
}

func TestCheckersCatchSeededBugs(t *testing.T) {
	// Bugs detectable by port-level checkers and the scoreboard alone
	// (without the alignment comparison): pipe overflow, error-tid, chunk
	// interleave, T2 ordering.
	cases := []struct {
		name string
		bugs bca.Bugs
		cfg  nodespec.Config
		tc   TrafficConfig
		rule string
	}{
		{
			name: "pipe-off-by-one",
			bugs: bca.Bugs{PipeOffByOne: true},
			cfg: func() nodespec.Config {
				c := nodeCfg(1, 1)
				c.PipeSize = 2
				return c
			}(),
			tc:   TrafficConfig{Ops: 40},
			rule: "pipe-overflow",
		},
		{
			name: "err-resp-tid-zero",
			bugs: bca.Bugs{ErrRespTIDZero: true},
			cfg:  nodeCfg(1, 1),
			tc:   TrafficConfig{Ops: 40, UnmappedPct: 40},
			rule: "resp-unknown-tag",
		},
		{
			name: "t2-order-ignored",
			bugs: bca.Bugs{T2OrderIgnored: true},
			cfg: func() nodespec.Config {
				c := nodeCfg(1, 2)
				c.Port.Type = stbus.Type2
				return c
			}(),
			tc:   TrafficConfig{Ops: 60},
			rule: "order",
		},
		{
			name: "chunk-lck-ignored",
			bugs: bca.Bugs{ChunkLckIgnored: true},
			cfg: func() nodespec.Config {
				c := nodeCfg(3, 1)
				c.ReqArb = arb.RoundRobin
				return c
			}(),
			tc:   TrafficConfig{Ops: 60, ChunkPct: 50},
			rule: "chunk-interleave",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sm := sim.New()
			n, err := bca.NewNode(sim.Root(sm), c.cfg, c.bugs)
			if err != nil {
				t.Fatal(err)
			}
			b := buildBench(sm, c.cfg, c.tc, 31, n.Init, n.Tgt)
			// A bugged DUT may stall or misbehave; run bounded and don't
			// require drain.
			done := func() bool {
				for _, bfm := range b.bfms {
					if !bfm.Done() {
						return false
					}
				}
				return true
			}
			_ = sm.RunUntil(done, 30000)
			found := false
			for _, v := range b.violations() {
				if v.Rule == c.rule {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("rule %q not triggered; violations: %v", c.rule, b.violations())
			}
		})
	}
}

func TestOOOCoverageBinHit(t *testing.T) {
	cfg := nodeCfg(1, 2)
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different-speed targets force out-of-order completion (paper §5).
	b := &bench{sm: sm}
	tc := TrafficConfig{Ops: 60}
	ops := GenerateOps(cfg, tc, 0, 12)
	b.bfms = append(b.bfms, NewInitiatorBFM(sm, n.Init[0], ops))
	NewTargetBFM(sm, n.Tgt[0], TargetConfig{MinLatency: 25, MaxLatency: 25}, 1)
	NewTargetBFM(sm, n.Tgt[1], TargetConfig{MinLatency: 0, MaxLatency: 0}, 2)
	b.cov = attachEnv(sm, cfg, tc, n.Init).Coverage
	b.run(t, 30000)
	if b.cov.Group.MustItem("completion_order").Hits("reordered") == 0 {
		t.Error("reordered bin never hit despite different-speed targets")
	}
}

func TestMonitorReconstructsTransaction(t *testing.T) {
	cfg := nodeCfg(1, 1)
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon := attachEnv(sm, cfg, TrafficConfig{}, n.Init).Asm[0]
	NewTargetBFM(sm, n.Tgt[0], TargetConfig{MinLatency: 3, MaxLatency: 3}, 1)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cells, err := stbus.BuildRequest(stbus.Type3, stbus.LittleEndian, stbus.ST8, 0x1008,
		payload, 4, 9, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	bfm := NewInitiatorBFM(sm, n.Init[0], []Op{{Cells: cells}})
	if err := sm.RunUntil(bfm.Done, 300); err != nil {
		t.Fatal(err)
	}
	if len(mon.Completed) != 1 {
		t.Fatalf("%d transactions", len(mon.Completed))
	}
	tr := mon.Completed[0]
	if tr.Opc != stbus.ST8 || tr.Addr != 0x1008 || tr.TID != 9 || tr.Target != 0 || tr.Initiator != 0 {
		t.Errorf("transaction %v", tr)
	}
	if string(tr.WriteData) != string(payload) {
		t.Errorf("write data %x", tr.WriteData)
	}
	if tr.Err {
		t.Error("unexpected error flag")
	}
	if tr.EndCycle <= tr.StartCycle {
		t.Error("cycle stamps wrong")
	}
}

func TestCheckerCleanOnDirectedTraffic(t *testing.T) {
	cfg := nodeCfg(1, 1)
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := attachEnv(sm, cfg, TrafficConfig{}, n.Init).Checkers[0]
	NewTargetBFM(sm, n.Tgt[0], TargetConfig{}, 1)
	ops := GenerateOps(cfg, TrafficConfig{Ops: 20}, 0, 4)
	bfm := NewInitiatorBFM(sm, n.Init[0], ops)
	if err := sm.RunUntil(bfm.Done, 5000); err != nil {
		t.Fatal(err)
	}
	if len(ck.Violations) != 0 {
		t.Fatalf("violations: %v", ck.Violations)
	}
	if len(ck.pending) != 0 {
		t.Errorf("checker still tracks %d outstanding", len(ck.pending))
	}
}
