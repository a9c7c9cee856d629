package rtl

import (
	"bytes"
	"testing"

	"crve/internal/arb"
	"crve/internal/coverage"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// tbInit is a minimal test driver for an initiator-side port: it streams a
// queue of request cells (holding each until granted) and collects response
// cells with r_gnt always offered.
type tbInit struct {
	p      *stbus.Port
	toSend []stbus.Cell
	idx    int
	resp   []stbus.RespCell
}

func attachInit(sm *sim.Simulator, p *stbus.Port) *tbInit {
	tb := &tbInit{p: p}
	sm.Seq(p.Name+".drv", func() {
		if tb.idx < len(tb.toSend) && p.ReqFire() {
			tb.idx++
		}
		if tb.idx < len(tb.toSend) {
			p.DriveCell(tb.toSend[tb.idx])
		} else {
			p.IdleReq()
		}
		if p.RespFire() {
			tb.resp = append(tb.resp, p.SampleResp())
		}
		p.RGnt.SetBool(true)
	})
	return tb
}

func (tb *tbInit) send(cells []stbus.Cell) { tb.toSend = append(tb.toSend, cells...) }

// respPackets splits collected cells into packets at EOP boundaries.
func (tb *tbInit) respPackets() [][]stbus.RespCell {
	var out [][]stbus.RespCell
	var cur []stbus.RespCell
	for _, c := range tb.resp {
		cur = append(cur, c)
		if c.EOP {
			out = append(out, cur)
			cur = nil
		}
	}
	return out
}

func t3cfg(nInit, nTgt int) NodeConfig {
	return NodeConfig{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: nInit, NumTgt: nTgt,
		Arch:   FullCrossbar,
		ReqArb: arb.Priority, RespArb: arb.Priority,
		Map: stbus.UniformMap(nTgt, 0x1000, 0x1000),
	}
}

// memBridge attaches memory-model behaviour directly to a node target port
// as a clocked process, standing in for a Memory component without needing a
// wire-level bridge between two separately created port bundles.
type memBridge struct {
	mem map[uint64]byte
	cur []stbus.Cell
	q   []*memPacket
	cyc uint64
	lat uint64
	gap int
	gp  int
}

func attachMem(sm *sim.Simulator, p *stbus.Port, lat uint64, gap int) *memBridge {
	b := &memBridge{mem: map[uint64]byte{}, lat: lat, gp: gap}
	cfg := p.Cfg
	sm.Seq(p.Name+".mem", func() {
		b.cyc++
		if p.ReqFire() {
			b.cur = append(b.cur, p.SampleCell())
			b.gap = b.gp
			if b.cur[len(b.cur)-1].EOP {
				b.q = append(b.q, b.serve(cfg, b.cur))
				b.cur = nil
			}
		} else if b.gap > 0 {
			b.gap--
		}
		if p.RespFire() {
			h := b.q[0]
			h.idx++
			if h.idx == len(h.resp) {
				b.q = b.q[1:]
			}
		}
		if len(b.q) > 0 && b.cyc >= b.q[0].readyAt {
			p.DriveResp(b.q[0].resp[b.q[0].idx])
		} else {
			p.IdleResp()
		}
		p.Gnt.SetBool(len(b.q) < 4 && b.gap == 0)
	})
	return b
}

func (b *memBridge) serve(cfg stbus.PortConfig, cells []stbus.Cell) *memPacket {
	first := cells[0]
	op, addr := first.Opc, first.Addr
	var rd []byte
	if op.IsLoad() {
		rd = make([]byte, op.SizeBytes())
		for i := range rd {
			rd[i] = b.mem[addr+uint64(i)]
		}
	}
	if op.HasWriteData() {
		for i, v := range stbus.ExtractWriteData(cfg.Endian, cells, cfg.BusBytes()) {
			b.mem[addr+uint64(i)] = v
		}
	}
	resp, err := stbus.BuildResponse(cfg.Type, cfg.Endian, op, addr, rd, cfg.BusBytes(),
		first.TID, first.Src, false)
	if err != nil {
		panic(err)
	}
	return &memPacket{resp: resp, readyAt: b.cyc + b.lat}
}

func mustCells(t *testing.T, ty stbus.Type, e stbus.Endianness, op stbus.Opcode, addr uint64,
	payload []byte, busBytes int, tid, src uint8) []stbus.Cell {
	t.Helper()
	cells, err := stbus.BuildRequest(ty, e, op, addr, payload, busBytes, tid, src, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestNodeWriteReadRoundTrip(t *testing.T) {
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), t3cfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 2, 0)

	payload := []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST8, 0x1000, payload, 4, 1, 0))
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD8, 0x1000, nil, 4, 2, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 2 }, 200); err != nil {
		t.Fatal(err)
	}
	pks := init.respPackets()
	if pks[0][0].Err() || pks[0][0].TID != 1 {
		t.Errorf("store response wrong: %+v", pks[0])
	}
	got := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD8, 0x1000, pks[1], 4)
	if !bytes.Equal(got, payload) {
		t.Errorf("read back %x, want %x", got, payload)
	}
	if pks[1][0].TID != 2 {
		t.Errorf("read tid = %d", pks[1][0].TID)
	}
	if len(n.ist[0].outstanding) != 0 {
		t.Errorf("outstanding = %d after completion", len(n.ist[0].outstanding))
	}
}

func TestNodeUnmappedAddressError(t *testing.T) {
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), t3cfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 0, 0)
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x9000, nil, 4, 5, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	pk := init.respPackets()[0]
	if !pk[0].Err() {
		t.Error("unmapped access should return error response")
	}
	if pk[0].TID != 5 {
		t.Errorf("error response tid = %d, want 5", pk[0].TID)
	}
}

func TestNodeProgrammingPort(t *testing.T) {
	cfg := t3cfg(2, 1)
	cfg.ReqArb = arb.Programmable
	cfg.ProgPort = true
	cfg.ProgBase = 0x8000
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachInit(sm, n.Init[1])
	attachMem(sm, n.Tgt[0], 0, 0)

	// Write priority 0xA for initiator 1, then read it back.
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x8004, []byte{0x0a, 0, 0, 0}, 4, 1, 0))
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x8004, nil, 4, 2, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 2 }, 200); err != nil {
		t.Fatal(err)
	}
	pks := init.respPackets()
	if pks[0][0].Err() {
		t.Fatal("prog write errored")
	}
	rd := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD4, 0x8004, pks[1], 4)
	if rd[0] != 0x0a {
		t.Errorf("prog read = %#x, want 0x0a", rd[0])
	}
	if n.progRegs[1] != 0x0a {
		t.Errorf("register file = %v", n.progRegs)
	}
}

func TestNodeProgPortBadAccessErrors(t *testing.T) {
	cfg := t3cfg(1, 1)
	cfg.ReqArb = arb.Programmable
	cfg.ProgPort = true
	cfg.ProgBase = 0x8000
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 0, 0)
	// ST8 is not a legal programming access.
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST8, 0x8000,
		make([]byte, 8), 4, 1, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	if !init.respPackets()[0][0].Err() {
		t.Error("illegal programming access should error")
	}
}

func TestNodePriorityArbitrationOrder(t *testing.T) {
	// Two initiators contend for one slow target; initiator 0 has the higher
	// static priority and must win every first grant.
	cfg := t3cfg(2, 1)
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	i0 := attachInit(sm, n.Init[0])
	i1 := attachInit(sm, n.Init[1])
	attachMem(sm, n.Tgt[0], 1, 0)
	for k := 0; k < 3; k++ {
		i0.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x1000, nil, 4, uint8(k), 0))
		i1.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x1004, nil, 4, uint8(k), 1))
	}
	var order []int
	sm.AtCycleEnd(func() {
		if n.Init[0].ReqFire() {
			order = append(order, 0)
		}
		if n.Init[1].ReqFire() {
			order = append(order, 1)
		}
	})
	if err := sm.RunUntil(func() bool {
		return len(i0.respPackets()) == 3 && len(i1.respPackets()) == 3
	}, 500); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("grants = %v", order)
	}
	// All of initiator 0's packets must be granted before any wait-blocked
	// initiator 1 packet when both request (priority policy, init0 higher).
	first3 := order[:3]
	for _, w := range first3 {
		if w != 0 {
			t.Errorf("grant order %v: init0 must win all early grants", order)
			break
		}
	}
}

func TestNodeType2OrderingBlock(t *testing.T) {
	// Type 2: an initiator with an outstanding packet to target 0 must not
	// be granted toward target 1 until the response returns.
	cfg := t3cfg(1, 2)
	cfg.Port.Type = stbus.Type2
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 20, 0) // very slow
	attachMem(sm, n.Tgt[1], 0, 0)  // fast
	init.send(mustCells(t, stbus.Type2, stbus.LittleEndian, stbus.LD4, 0x1000, nil, 4, 0, 0))
	init.send(mustCells(t, stbus.Type2, stbus.LittleEndian, stbus.LD4, 0x2000, nil, 4, 1, 0))
	var fires []uint64
	sm.AtCycleEnd(func() {
		if n.Init[0].ReqFire() {
			fires = append(fires, sm.Cycle())
		}
	})
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	// The second grant must come after the slow response (≥20 cycles later).
	if len(fires) != 2 || fires[1]-fires[0] < 20 {
		t.Errorf("fires = %v: T2 ordering not enforced", fires)
	}
	// Responses must arrive in order: tid 0 then tid 1.
	pks := init.respPackets()
	if pks[0][0].TID != 0 || pks[1][0].TID != 1 {
		t.Errorf("T2 responses out of order: %d then %d", pks[0][0].TID, pks[1][0].TID)
	}
}

func TestNodeType3OutOfOrderResponses(t *testing.T) {
	// Type 3: short transactions to targets of different speed complete out
	// of order (the paper's §5 example of forcing out-of-order traffic).
	cfg := t3cfg(1, 2)
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 30, 0) // slow
	attachMem(sm, n.Tgt[1], 0, 0)  // fast
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x1000, nil, 4, 0, 0))
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x2000, nil, 4, 1, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	pks := init.respPackets()
	if pks[0][0].TID != 1 || pks[1][0].TID != 0 {
		t.Errorf("expected out-of-order completion, got tids %d,%d", pks[0][0].TID, pks[1][0].TID)
	}
}

func TestNodePipeSizeBackpressure(t *testing.T) {
	cfg := t3cfg(1, 1)
	cfg.PipeSize = 2
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 10, 0)
	for k := 0; k < 4; k++ {
		init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x1000, nil, 4, uint8(k), 0))
	}
	maxOut := 0
	sm.AtCycleEnd(func() {
		if len(n.ist[0].outstanding) > maxOut {
			maxOut = len(n.ist[0].outstanding)
		}
	})
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 4 }, 1000); err != nil {
		t.Fatal(err)
	}
	if maxOut > 2 {
		t.Errorf("outstanding reached %d, pipe size is 2", maxOut)
	}
}

func TestNodeSharedBusSingleGrantPerCycle(t *testing.T) {
	cfg := t3cfg(3, 3)
	cfg.Arch = SharedBus
	cfg.ReqArb, cfg.RespArb = arb.RoundRobin, arb.RoundRobin
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := []*tbInit{attachInit(sm, n.Init[0]), attachInit(sm, n.Init[1]), attachInit(sm, n.Init[2])}
	for tgt := 0; tgt < 3; tgt++ {
		attachMem(sm, n.Tgt[tgt], 0, 0)
	}
	for k, in := range inits {
		for j := 0; j < 4; j++ {
			addr := 0x1000 + uint64(k)*0x1000
			in.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, addr, nil, 4, uint8(j), uint8(k)))
		}
	}
	violations := 0
	sm.AtCycleEnd(func() {
		fires := 0
		for _, p := range n.Init {
			if p.ReqFire() {
				fires++
			}
		}
		if fires > 1 {
			violations++
		}
	})
	done := func() bool {
		for _, in := range inits {
			if len(in.respPackets()) != 4 {
				return false
			}
		}
		return true
	}
	if err := sm.RunUntil(done, 2000); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Errorf("%d cycles with >1 request grant on shared bus", violations)
	}
}

func TestNodeFullCrossbarParallelGrants(t *testing.T) {
	cfg := t3cfg(2, 2)
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	i0 := attachInit(sm, n.Init[0])
	i1 := attachInit(sm, n.Init[1])
	attachMem(sm, n.Tgt[0], 0, 0)
	attachMem(sm, n.Tgt[1], 0, 0)
	for j := 0; j < 8; j++ {
		i0.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x1000, nil, 4, uint8(j), 0))
		i1.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x2000, nil, 4, uint8(j), 1))
	}
	parallel := 0
	sm.AtCycleEnd(func() {
		if n.Init[0].ReqFire() && n.Init[1].ReqFire() {
			parallel++
		}
	})
	if err := sm.RunUntil(func() bool {
		return len(i0.respPackets()) == 8 && len(i1.respPackets()) == 8
	}, 1000); err != nil {
		t.Fatal(err)
	}
	if parallel == 0 {
		t.Error("full crossbar never granted two initiators in one cycle")
	}
}

func TestNodePartialCrossbarBlockedPair(t *testing.T) {
	cfg := t3cfg(2, 2)
	cfg.Arch = PartialCrossbar
	cfg.Allowed = [][]bool{{true, true}, {true, false}} // init1 cannot reach tgt1
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	i1 := attachInit(sm, n.Init[1])
	attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 0, 0)
	attachMem(sm, n.Tgt[1], 0, 0)
	i1.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x2000, nil, 4, 0, 1))
	if err := sm.RunUntil(func() bool { return len(i1.respPackets()) == 1 }, 200); err != nil {
		t.Fatal(err)
	}
	if !i1.respPackets()[0][0].Err() {
		t.Error("unreachable pair must answer with error response")
	}
}

func TestNodeChunkLockHoldsTarget(t *testing.T) {
	// Initiator 0 sends a 2-packet chunk (lck on first packet's EOP);
	// initiator 1 must not interleave at the target between the packets.
	cfg := t3cfg(2, 1)
	cfg.ReqArb = arb.RoundRobin // would otherwise alternate
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	i0 := attachInit(sm, n.Init[0])
	i1 := attachInit(sm, n.Init[1])
	attachMem(sm, n.Tgt[0], 0, 0)
	chunk1, err := stbus.BuildRequest(stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x1000,
		[]byte{1, 2, 3, 4}, 4, 0, 0, 0, true) // lck set
	if err != nil {
		t.Fatal(err)
	}
	chunk2 := mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x1004, []byte{5, 6, 7, 8}, 4, 1, 0)
	i0.send(chunk1)
	i0.send(chunk2)
	i1.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x1000, nil, 4, 0, 1))
	var order []int
	sm.AtCycleEnd(func() {
		if n.Init[0].ReqFire() {
			order = append(order, 0)
		}
		if n.Init[1].ReqFire() {
			order = append(order, 1)
		}
	})
	if err := sm.RunUntil(func() bool {
		return len(i0.respPackets()) == 2 && len(i1.respPackets()) == 1
	}, 500); err != nil {
		t.Fatal(err)
	}
	// Both of init0's packets must be granted before init1's.
	if len(order) != 3 || order[0] != 0 || order[1] != 0 || order[2] != 1 {
		t.Errorf("grant order %v, want [0 0 1] (chunk must hold the target)", order)
	}
}

func TestNodeMultiCellPacketThroughNode(t *testing.T) {
	// An ST16 on a 32-bit bus is 4 request cells; data integrity end to end.
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), t3cfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	mem := attachMem(sm, n.Tgt[0], 1, 1)
	payload := make([]byte, 16)
	for i := range payload {
		payload[i] = byte(0x40 + i)
	}
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST16, 0x1010, payload, 4, 3, 0))
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD16, 0x1010, nil, 4, 4, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	for i, b := range payload {
		if mem.mem[0x1010+uint64(i)] != b {
			t.Fatalf("memory byte %d = %#x, want %#x", i, mem.mem[0x1010+uint64(i)], b)
		}
	}
	rd := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD16, 0x1010, init.respPackets()[1], 4)
	if !bytes.Equal(rd, payload) {
		t.Errorf("read %x want %x", rd, payload)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	bad := []NodeConfig{
		{Port: stbus.PortConfig{Type: stbus.Type1, DataBits: 32}, NumInit: 1, NumTgt: 1,
			Map: stbus.UniformMap(1, 0, 0x1000)},
		func() NodeConfig { c := t3cfg(0, 1); return c }(),
		func() NodeConfig { c := t3cfg(1, 33); return c }(),
		func() NodeConfig { c := t3cfg(2, 2); c.Arch = PartialCrossbar; return c }(),
		func() NodeConfig { c := t3cfg(1, 1); c.PipeSize = 100; return c }(),
		func() NodeConfig {
			c := t3cfg(1, 1)
			c.ProgPort = true
			c.ProgBase = 0x1000 // overlaps map
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := NewNode(sim.Root(sim.New()), cfg.WithDefaults()); err == nil {
			t.Errorf("config %d should be rejected: %v", i, cfg)
		}
	}
}

func TestParseArch(t *testing.T) {
	for _, a := range []Arch{SharedBus, FullCrossbar, PartialCrossbar} {
		got, err := ParseArch(a.String())
		if err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArch("mesh"); err == nil {
		t.Error("unknown arch should fail")
	}
}

func TestNodeCodeCoverageAccumulates(t *testing.T) {
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), t3cfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	init := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 0, 0)
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x1000, []byte{1, 2, 3, 4}, 4, 0, 0))
	init.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x9000, nil, 4, 1, 0))
	if err := sm.RunUntil(func() bool { return len(init.respPackets()) == 2 }, 200); err != nil {
		t.Fatal(err)
	}
	// Core statements must have been exercised by the two transactions.
	if n.Code.Percent(coverage.LinePoint) == 0 {
		t.Error("no line coverage accumulated")
	}
	for _, want := range []string{"route.mapped", "route.unmapped"} {
		found := true
		for _, h := range n.Code.Holes(coverage.StmtPoint) {
			if h == want {
				found = false
			}
		}
		if !found {
			t.Errorf("statement %q not covered", want)
		}
	}
}
