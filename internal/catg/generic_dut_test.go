package catg

import (
	"testing"

	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// TestBenchAroundConverterDUT shows the environment's genericity claim: CATG
// is "aimed to test component[s] having STBus interfaces", not only the
// node. Here the DUT is a type converter (T3 upstream, T2 downstream) with a
// memory behind it; the same BFM/monitor/checker/scoreboard/coverage pieces
// wrap it unchanged.
func TestBenchAroundConverterDUT(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type3, DataBits: 32}.WithDefaults()
	sm := sim.New()
	root := sim.Root(sm)
	conv, err := rtl.NewTypeConverter(root, "dut", up, stbus.Type2)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := rtl.NewMemory(root, rtl.MemoryConfig{
		Name: "m", Port: conv.Cfg.Down, Base: 0x1000, Size: 0x1000, Latency: 2})
	if err != nil {
		t.Fatal(err)
	}
	stbus.Bind(sm, conv.Down, mem.Port)

	// The converter is a single-initiator single-"target" component: describe
	// it to the environment as a 1x1 system whose pipe matches the
	// converter's. The converter's downstream port is the observable target
	// side; but its protocol type differs, so the checker there validates
	// against a T2 view of the same component.
	upView := nodespec.Config{
		Port: up, NumInit: 1, NumTgt: 1,
		Arch: nodespec.FullCrossbar,
		Map:  stbus.UniformMap(1, 0x1000, 0x1000),
		// Store-and-forward converter accepts up to its pipe depth.
		PipeSize: conv.Cfg.Pipe,
	}.WithDefaults()
	downView := upView
	downView.Port = conv.Cfg.Down

	tc := TrafficConfig{Ops: 30, IdlePct: 10}
	ops := GenerateOps(upView, tc, 0, 5)
	bfm := NewInitiatorBFM(sm, conv.Up, ops)
	env := attachEnv(sm, upView, tc, []*stbus.Port{conv.Up})
	upMon, upCk, sb, cov := env.Asm[0], env.Checkers[0], env.Scoreboard, env.Coverage
	// The downstream port speaks the T2 view, so its assembler and checker
	// are built for that view and fed the same scoreboard.
	downMon := NewTxAssembler(conv.Cfg.Down, 0, false, nil)
	downCk := NewChecker(conv.Down.Name, downView, false, nil)
	var cyc uint64
	sm.AtCycleEnd(func() {
		s := SamplePort(conv.Down)
		if s.ReqFire() {
			downMon.ReqCell(cyc, s.Cell)
		}
		if s.RespFire() {
			if tr := downMon.RespCell(cyc, s.Resp); tr != nil {
				sb.AddTargetTransaction(tr)
			}
		}
		downCk.Step(&s)
		cyc++
	})

	if err := sm.RunUntil(bfm.Done, 20000); err != nil {
		t.Fatal(err)
	}
	if err := sm.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(upCk.Violations) != 0 {
		t.Fatalf("upstream checker: %v", upCk.Violations)
	}
	if len(downCk.Violations) != 0 {
		t.Fatalf("downstream checker: %v", downCk.Violations)
	}
	if errs := sb.Check(); len(errs) != 0 {
		t.Fatalf("scoreboard through the converter: %v", errs)
	}
	if len(upMon.Completed) != 30 {
		t.Errorf("%d transactions observed, want 30", len(upMon.Completed))
	}
	if cov.Group.Percent() < 70 {
		t.Errorf("coverage %.1f%%\n%s", cov.Group.Percent(), cov.Group.Report())
	}
}

// TestBenchAroundType1PeripheralDUT plugs the environment onto a Type 1
// peripheral interface: a T1→T3 converter in front of a memory. Type 1
// allows one outstanding operation; the converter's single-entry pipe
// enforces it, and the checker's t1-outstanding rule watches it.
func TestBenchAroundType1PeripheralDUT(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type1, DataBits: 32}.WithDefaults()
	sm := sim.New()
	root := sim.Root(sm)
	conv, err := rtl.NewTypeConverter(root, "dut", up, stbus.Type3)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Cfg.Pipe != 1 {
		t.Fatalf("T1 converter pipe = %d", conv.Cfg.Pipe)
	}
	mem, err := rtl.NewMemory(root, rtl.MemoryConfig{
		Name: "m", Port: conv.Cfg.Down, Base: 0x1000, Size: 0x1000, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	stbus.Bind(sm, conv.Down, mem.Port)

	upView := nodespec.Config{
		Port: up, NumInit: 1, NumTgt: 1,
		Map:      stbus.UniformMap(1, 0x1000, 0x1000),
		PipeSize: 1,
	}
	// Type 1 restricts the command set: word-sized loads and stores only.
	tc := TrafficConfig{Ops: 20, Sizes: []int{1, 2, 4}, IdlePct: 20}
	ops := GenerateOps(upView, tc, 0, 9)
	for _, o := range ops {
		if !o.Cells[0].Opc.ValidFor(stbus.Type1, up.BusBytes()) {
			t.Fatalf("generator emitted %v, illegal on T1", o.Cells[0].Opc)
		}
		if len(o.Cells) != 1 {
			t.Fatalf("T1 packets are single-cell, got %d", len(o.Cells))
		}
	}
	bfm := NewInitiatorBFM(sm, conv.Up, ops)
	env := attachEnv(sm, upView, tc, []*stbus.Port{conv.Up})
	ck, mon := env.Checkers[0], env.Asm[0]
	if err := sm.RunUntil(bfm.Done, 10000); err != nil {
		t.Fatal(err)
	}
	if len(ck.Violations) != 0 {
		t.Fatalf("T1 checker: %v", ck.Violations)
	}
	if len(mon.Completed) != 20 {
		t.Errorf("%d transactions, want 20", len(mon.Completed))
	}
	for _, tr := range mon.Completed {
		if tr.Err {
			t.Errorf("unexpected error response: %v", tr)
		}
	}
}
