package bca

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"crve/internal/arb"
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// ---- shared deterministic testbench pieces (driver + memory model) ----

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

type tbMem struct {
	mem map[uint64]byte
	cur []stbus.Cell
	q   []*tbPkt
	cyc uint64
	lat uint64
}

type tbPkt struct {
	resp    []stbus.RespCell
	readyAt uint64
	idx     int
}

func attachMem(sm *sim.Simulator, p *stbus.Port, lat uint64) *tbMem {
	b := &tbMem{mem: map[uint64]byte{}, lat: lat}
	cfg := p.Cfg
	sm.Seq(p.Name+".mem", func() {
		b.cyc++
		if p.ReqFire() {
			b.cur = append(b.cur, p.SampleCell())
			if b.cur[len(b.cur)-1].EOP {
				first := b.cur[0]
				var rd []byte
				if first.Opc.IsLoad() {
					rd = make([]byte, first.Opc.SizeBytes())
					for i := range rd {
						rd[i] = b.mem[first.Addr+uint64(i)]
					}
				}
				if first.Opc.HasWriteData() {
					for i, v := range stbus.ExtractWriteData(cfg.Endian, b.cur, cfg.BusBytes()) {
						b.mem[first.Addr+uint64(i)] = v
					}
				}
				resp, err := stbus.BuildResponse(cfg.Type, cfg.Endian, first.Opc, first.Addr, rd,
					cfg.BusBytes(), first.TID, first.Src, false)
				if err != nil {
					panic(err)
				}
				b.q = append(b.q, &tbPkt{resp: resp, readyAt: b.cyc + b.lat})
				b.cur = nil
			}
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
		p.Gnt.SetBool(len(b.q) < 4)
	})
	return b
}

func cells(t *testing.T, ty stbus.Type, op stbus.Opcode, addr uint64, payload []byte,
	busBytes int, tid, src uint8) []stbus.Cell {
	t.Helper()
	out, err := stbus.BuildRequest(ty, stbus.LittleEndian, op, addr, payload, busBytes, tid, src, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func cfg3(nInit, nTgt int) nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: nInit, NumTgt: nTgt,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.Priority, RespArb: arb.Priority,
		Map: stbus.UniformMap(nTgt, 0x1000, 0x1000),
	}
}

// ---- wrapped-model functional tests ----

func TestBCAWriteReadRoundTrip(t *testing.T) {
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg3(1, 1), Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	drv := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 2)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	drv.send(cells(t, stbus.Type3, stbus.ST8, 0x1000, payload, 4, 1, 0))
	drv.send(cells(t, stbus.Type3, stbus.LD8, 0x1000, nil, 4, 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 300); err != nil {
		t.Fatal(err)
	}
	rd := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD8, 0x1000, drv.respPackets()[1], 4)
	if !bytes.Equal(rd, payload) {
		t.Errorf("read %x want %x", rd, payload)
	}
	if len(n.eng.inflight[0]) != 0 {
		t.Errorf("outstanding = %d", len(n.eng.inflight[0]))
	}
}

func TestBCAUnmappedError(t *testing.T) {
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg3(1, 1), Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	drv := attachInit(sm, n.Init[0])
	attachMem(sm, n.Tgt[0], 0)
	drv.send(cells(t, stbus.Type3, stbus.LD4, 0x9000, nil, 4, 7, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 200); err != nil {
		t.Fatal(err)
	}
	pk := drv.respPackets()[0]
	if !pk[0].Err() || pk[0].TID != 7 {
		t.Errorf("error response %+v", pk[0])
	}
}

func TestBCAProgrammingPort(t *testing.T) {
	cfg := cfg3(2, 1)
	cfg.ReqArb = arb.Programmable
	cfg.ProgPort = true
	cfg.ProgBase = 0x8000
	sm := sim.New()
	n, err := NewNode(sim.Root(sm), cfg, Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	drv := attachInit(sm, n.Init[0])
	attachInit(sm, n.Init[1])
	attachMem(sm, n.Tgt[0], 0)
	drv.send(cells(t, stbus.Type3, stbus.ST4, 0x8000, []byte{0x3, 0, 0, 0}, 4, 1, 0))
	drv.send(cells(t, stbus.Type3, stbus.LD4, 0x8000, nil, 4, 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 300); err != nil {
		t.Fatal(err)
	}
	rd := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD4, 0x8000, drv.respPackets()[1], 4)
	if rd[0] != 3 || n.eng.regs[0] != 3 {
		t.Errorf("prog readback %v regs %v", rd, n.eng.regs)
	}
}

// ---- RTL/BCA lockstep equivalence (the in-repo alignment property) ----

// lockstep builds the same testbench around an RTL node and a (possibly
// bugged) BCA node in two separate simulators, runs them in lockstep and
// returns the first cycle at which any port signal differs (-1 if aligned
// for the whole run).
func lockstep(t *testing.T, cfg nodespec.Config, bugs Bugs, traffic func(i int) []stbus.Cell,
	memLat func(tg int) uint64, cyclesAfter int) int {
	t.Helper()
	smR := sim.New()
	smB := sim.New()
	rn, err := rtl.NewNode(sim.Root(smR), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewNode(sim.Root(smB), cfg, bugs)
	if err != nil {
		t.Fatal(err)
	}
	var rIn, bIn []*tbInit
	for i := 0; i < cfg.NumInit; i++ {
		r := attachInit(smR, rn.Init[i])
		b := attachInit(smB, bn.Init[i])
		r.send(traffic(i))
		b.send(traffic(i))
		rIn = append(rIn, r)
		bIn = append(bIn, b)
	}
	for tg := 0; tg < cfg.NumTgt; tg++ {
		attachMem(smR, rn.Tgt[tg], memLat(tg))
		attachMem(smB, bn.Tgt[tg], memLat(tg))
	}
	rPorts, bPorts := rn.Ports(), bn.Ports()
	idle := 0
	for cyc := 0; idle < cyclesAfter; cyc++ {
		if cyc > 100000 {
			t.Fatal("lockstep run did not drain")
		}
		if err := smR.Step(); err != nil {
			t.Fatal(err)
		}
		if err := smB.Step(); err != nil {
			t.Fatal(err)
		}
		for pi := range rPorts {
			rs, bs := rPorts[pi].Signals(), bPorts[pi].Signals()
			for si := range rs {
				if !rs[si].Get().Equal(bs[si].Get()) {
					return cyc
				}
			}
		}
		done := true
		for i := range rIn {
			if rIn[i].idx < len(rIn[i].toSend) || bIn[i].idx < len(bIn[i].toSend) {
				done = false
			}
		}
		if done {
			idle++
		} else {
			idle = 0
		}
	}
	return -1
}

// randomTraffic builds a deterministic random cell stream per initiator.
func randomTraffic(cfg nodespec.Config, seed int64, ops int) func(i int) []stbus.Cell {
	return func(i int) []stbus.Cell {
		rng := rand.New(rand.NewSource(seed + int64(i)*977))
		return genTraffic(cfg, rng, i, ops)
	}
}

func TestLockstepAlignmentBugFree(t *testing.T) {
	cfgs := []nodespec.Config{
		cfg3(2, 2),
		func() nodespec.Config {
			c := cfg3(3, 2)
			c.Arch = nodespec.SharedBus
			c.ReqArb, c.RespArb = arb.RoundRobin, arb.RoundRobin
			return c
		}(),
		func() nodespec.Config {
			c := cfg3(2, 2)
			c.Port.Type = stbus.Type2
			c.ReqArb = arb.LRU
			return c
		}(),
		func() nodespec.Config {
			c := cfg3(4, 3)
			c.ReqArb, c.RespArb = arb.Latency, arb.Bandwidth
			return c
		}(),
		func() nodespec.Config {
			c := cfg3(2, 2)
			c.Arch = nodespec.PartialCrossbar
			c.Allowed = [][]bool{{true, true}, {true, false}}
			return c
		}(),
		func() nodespec.Config {
			c := cfg3(2, 2)
			c.Port.DataBits = 256
			c.Port.Endian = stbus.BigEndian
			return c
		}(),
		func() nodespec.Config {
			c := cfg3(3, 3)
			c.Port.DataBits = 8
			c.PipeSize = 2
			c.ReqArb = arb.Bandwidth
			return c
		}(),
	}
	for ci, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			div := lockstep(t, cfg, Bugs{}, randomTraffic(cfg, int64(42+ci), 30),
				func(tg int) uint64 { return uint64(tg * 3) }, 20)
			if div >= 0 {
				t.Errorf("bug-free views diverged at cycle %d (config %v)", div, cfg)
			}
		})
	}
}

func TestLockstepDivergesWithBugs(t *testing.T) {
	// Each seeded bug must produce an observable signal-level divergence
	// under a workload that exercises it.
	t.Run("lru-init", func(t *testing.T) {
		cfg := cfg3(3, 1)
		cfg.ReqArb = arb.LRU
		div := lockstep(t, cfg, Bugs{LRUInit: true}, randomTraffic(cfg, 7, 20),
			func(int) uint64 { return 2 }, 20)
		if div < 0 {
			t.Error("LRU-init bug did not diverge under contention")
		}
	})
	t.Run("pipe-off-by-one", func(t *testing.T) {
		cfg := cfg3(1, 1)
		cfg.PipeSize = 2
		div := lockstep(t, cfg, Bugs{PipeOffByOne: true}, randomTraffic(cfg, 9, 30),
			func(int) uint64 { return 8 }, 20)
		if div < 0 {
			t.Error("pipe bug did not diverge under saturating traffic")
		}
	})
	t.Run("err-resp-tid-zero", func(t *testing.T) {
		cfg := cfg3(1, 1)
		traffic := func(int) []stbus.Cell {
			return cells(t, stbus.Type3, stbus.LD4, 0x9000, nil, 4, 5, 0) // unmapped, tid 5
		}
		div := lockstep(t, cfg, Bugs{ErrRespTIDZero: true}, traffic,
			func(int) uint64 { return 0 }, 20)
		if div < 0 {
			t.Error("error-tid bug did not diverge")
		}
	})
	t.Run("t2-order-ignored", func(t *testing.T) {
		cfg := cfg3(1, 2)
		cfg.Port.Type = stbus.Type2
		traffic := func(int) []stbus.Cell {
			var out []stbus.Cell
			out = append(out, cells(t, stbus.Type2, stbus.LD4, 0x1000, nil, 4, 0, 0)...)
			out = append(out, cells(t, stbus.Type2, stbus.LD4, 0x2000, nil, 4, 1, 0)...)
			return out
		}
		div := lockstep(t, cfg, Bugs{T2OrderIgnored: true}, traffic,
			func(tg int) uint64 { return uint64(30 - 28*tg) }, 20)
		if div < 0 {
			t.Error("T2-order bug did not diverge")
		}
	})
	t.Run("chunk-lck-ignored", func(t *testing.T) {
		cfg := cfg3(2, 1)
		cfg.ReqArb = arb.RoundRobin
		traffic := func(i int) []stbus.Cell {
			if i == 0 {
				chunk1, err := stbus.BuildRequest(stbus.Type3, stbus.LittleEndian, stbus.ST4,
					0x1000, []byte{1, 2, 3, 4}, 4, 0, 0, 0, true)
				if err != nil {
					t.Fatal(err)
				}
				return append(chunk1, cells(t, stbus.Type3, stbus.ST4, 0x1004, []byte{5, 6, 7, 8}, 4, 1, 0)...)
			}
			return cells(t, stbus.Type3, stbus.LD4, 0x1000, nil, 4, 0, 1)
		}
		div := lockstep(t, cfg, Bugs{ChunkLckIgnored: true}, traffic,
			func(int) uint64 { return 1 }, 20)
		if div < 0 {
			t.Error("chunk bug did not diverge")
		}
	})
}

// ---- standalone engine ----

func TestStandaloneRunDrains(t *testing.T) {
	res, err := RunStandalone(StandaloneConfig{
		Node:       cfg3(3, 2),
		Seed:       11,
		OpsPerInit: 50,
		MemLatency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3*50 {
		t.Errorf("completed %d, want 150", res.Completed)
	}
	if res.Errors != 0 {
		t.Errorf("%d unexpected error responses", res.Errors)
	}
	if res.Cycles == 0 {
		t.Error("cycle count missing")
	}
}

func TestStandaloneDeterministic(t *testing.T) {
	run := func() StandaloneResult {
		res, err := RunStandalone(StandaloneConfig{
			Node: cfg3(2, 2), Seed: 3, OpsPerInit: 40, MemLatency: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("standalone runs differ: %+v vs %+v", a, b)
	}
}

func TestStandaloneSharedSlowerThanCrossbar(t *testing.T) {
	base := cfg3(4, 4)
	shared := base
	shared.Arch = nodespec.SharedBus
	runCfg := func(nc nodespec.Config) uint64 {
		res, err := RunStandalone(StandaloneConfig{Node: nc, Seed: 5, OpsPerInit: 60, MemLatency: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	xbar, sh := runCfg(base), runCfg(shared)
	if sh <= xbar {
		t.Errorf("shared bus (%d cycles) should be slower than crossbar (%d)", sh, xbar)
	}
}

func TestBugsHelpers(t *testing.T) {
	if (Bugs{}).Any() {
		t.Error("zero Bugs should be Any()==false")
	}
	all := AllBugs()
	names := BugNames()
	if len(all) != 5 || len(names) != 5 {
		t.Fatal("five bugs expected")
	}
	for i, b := range all {
		if !b.Any() {
			t.Errorf("bug %d not set", i)
		}
		l := b.List()
		if len(l) != 1 || l[0] != names[i] {
			t.Errorf("bug %d list %v, want [%s]", i, l, names[i])
		}
	}
}
