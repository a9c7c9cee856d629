package rtl

import (
	"bytes"
	"testing"

	"crve/internal/sim"
	"crve/internal/stbus"
)

func memCfg(lat, gap int) MemoryConfig {
	return MemoryConfig{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		Base:    0x0,
		Size:    0x10000,
		Latency: lat,
		GntGap:  gap,
	}
}

func TestMemoryWriteReadback(t *testing.T) {
	sm := sim.New()
	m, err := NewMemory(sim.Root(sm), memCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	drv := attachInit(sm, m.Port)
	payload := []byte{9, 8, 7, 6}
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x20, payload, 4, 1, 0))
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x20, nil, 4, 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 200); err != nil {
		t.Fatal(err)
	}
	if m.Peek(0x20) != 9 || m.Peek(0x23) != 6 {
		t.Error("memory bytes wrong")
	}
	rd := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD4, 0x20, drv.respPackets()[1], 4)
	if !bytes.Equal(rd, payload) {
		t.Errorf("read %x", rd)
	}
}

func TestMemoryRMWReturnsOldValue(t *testing.T) {
	sm := sim.New()
	m, err := NewMemory(sim.Root(sm), memCfg(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	m.mem.Write(0x40, []byte{0xaa})
	drv := attachInit(sm, m.Port)
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.RMW4, 0x40, []byte{1, 2, 3, 4}, 4, 1, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	old := stbus.ExtractReadData(stbus.LittleEndian, stbus.RMW4, 0x40, drv.respPackets()[0], 4)
	if old[0] != 0xaa {
		t.Errorf("RMW old value %#x, want 0xaa", old[0])
	}
	if m.Peek(0x40) != 1 {
		t.Errorf("RMW new value %#x, want 1", m.Peek(0x40))
	}
}

func TestMemoryOutOfWindowErrors(t *testing.T) {
	sm := sim.New()
	cfg := memCfg(0, 0)
	cfg.Base, cfg.Size = 0x1000, 0x100
	m, err := NewMemory(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv := attachInit(sm, m.Port)
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x2000, nil, 4, 0, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	if !drv.respPackets()[0][0].Err() {
		t.Error("out-of-window access should error")
	}
}

func TestMemoryLatencyObserved(t *testing.T) {
	sm := sim.New()
	m, err := NewMemory(sim.Root(sm), memCfg(15, 0))
	if err != nil {
		t.Fatal(err)
	}
	drv := attachInit(sm, m.Port)
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x0, nil, 4, 0, 0))
	var reqAt, respAt uint64
	sm.AtCycleEnd(func() {
		if m.Port.ReqFire() {
			reqAt = sm.Cycle()
		}
		if m.Port.RespFire() {
			respAt = sm.Cycle()
		}
	})
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 200); err != nil {
		t.Fatal(err)
	}
	if respAt-reqAt < 15 {
		t.Errorf("latency %d cycles, want >= 15", respAt-reqAt)
	}
}

func TestMemoryGntGapSlowsAcceptance(t *testing.T) {
	run := func(gap int) uint64 {
		sm := sim.New()
		cfg := memCfg(0, gap)
		m, err := NewMemory(sim.Root(sm), cfg)
		if err != nil {
			t.Fatal(err)
		}
		drv := attachInit(sm, m.Port)
		payload := make([]byte, 16)
		drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST16, 0x0, payload, 4, 0, 0))
		if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 500); err != nil {
			t.Fatal(err)
		}
		return sm.Cycle()
	}
	fast, slow := run(0), run(3)
	if slow <= fast {
		t.Errorf("gap=3 completed in %d cycles, gap=0 in %d", slow, fast)
	}
}

func TestMemoryFlushIsNoOpAck(t *testing.T) {
	sm := sim.New()
	m, err := NewMemory(sim.Root(sm), memCfg(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	m.mem.Write(0x10, []byte{0x55})
	drv := attachInit(sm, m.Port)
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.Op(stbus.KindFlush, 4), 0x10, nil, 4, 0, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	pk := drv.respPackets()[0]
	if pk[0].Err() {
		t.Error("flush should ack")
	}
	if m.Peek(0x10) != 0x55 {
		t.Error("flush must not modify memory")
	}
}
