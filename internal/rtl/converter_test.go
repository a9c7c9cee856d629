package rtl

import (
	"bytes"
	"testing"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// buildConvChain elaborates driver -> converter -> memory, bound with Bind.
func buildConvChain(t *testing.T, up, down stbus.PortConfig) (*sim.Simulator, *tbInit, *Converter, *Memory) {
	t.Helper()
	sm := sim.New()
	root := sim.Root(sm)
	conv, err := NewConverter(root, ConverterConfig{Name: "cv", Up: up, Down: down})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(root, MemoryConfig{Name: "m", Port: down, Base: 0, Size: 1 << 20, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	stbus.Bind(sm, conv.Down, mem.Port)
	drv := attachInit(sm, conv.Up)
	return sm, drv, conv, mem
}

func TestSizeConverterDownsize(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type3, DataBits: 64}.WithDefaults()
	down := up
	down.DataBits = 32
	sm, drv, conv, mem := buildConvChain(t, up, down)
	payload := make([]byte, 16)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	drv.send(mustCells(t, up.Type, up.Endian, stbus.ST16, 0x100, payload, up.BusBytes(), 1, 0))
	drv.send(mustCells(t, up.Type, up.Endian, stbus.LD16, 0x100, nil, up.BusBytes(), 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	for i, b := range payload {
		if mem.Peek(0x100+uint64(i)) != b {
			t.Fatalf("memory byte %d = %#x", i, mem.Peek(0x100+uint64(i)))
		}
	}
	rd := stbus.ExtractReadData(up.Endian, stbus.LD16, 0x100, drv.respPackets()[1], up.BusBytes())
	if !bytes.Equal(rd, payload) {
		t.Errorf("read back %x want %x", rd, payload)
	}
	if len(conv.pending) != 0 {
		t.Errorf("converter still holds %d packets", len(conv.pending))
	}
}

func TestSizeConverterUpsize(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type3, DataBits: 16}.WithDefaults()
	down := up
	down.DataBits = 128
	sm, drv, _, mem := buildConvChain(t, up, down)
	payload := []byte{0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3, 4}
	drv.send(mustCells(t, up.Type, up.Endian, stbus.ST8, 0x40, payload, up.BusBytes(), 1, 0))
	drv.send(mustCells(t, up.Type, up.Endian, stbus.LD8, 0x40, nil, up.BusBytes(), 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	if mem.Peek(0x40) != 0xaa || mem.Peek(0x47) != 4 {
		t.Error("memory content wrong after upsize")
	}
	rd := stbus.ExtractReadData(up.Endian, stbus.LD8, 0x40, drv.respPackets()[1], up.BusBytes())
	if !bytes.Equal(rd, payload) {
		t.Errorf("read back %x", rd)
	}
}

func TestTypeConverterT3ToT2(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type3, DataBits: 32}.WithDefaults()
	down := up
	down.Type = stbus.Type2
	sm, drv, _, _ := buildConvChain(t, up, down)
	// A T3 read request is 1 cell; downstream T2 must see the symmetric
	// form and the response must come back as T3.
	drv.send(mustCells(t, up.Type, up.Endian, stbus.LD16, 0x200, nil, up.BusBytes(), 3, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 500); err != nil {
		t.Fatal(err)
	}
	pk := drv.respPackets()[0]
	if len(pk) != stbus.RespLen(stbus.Type3, stbus.LD16, 4) {
		t.Errorf("upstream response has %d cells", len(pk))
	}
	if pk[0].TID != 3 || pk[0].Err() {
		t.Errorf("response %+v", pk[0])
	}
}

func TestTypeConverterT2ToT3(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type2, DataBits: 32}.WithDefaults()
	down := up
	down.Type = stbus.Type3
	sm, drv, _, mem := buildConvChain(t, up, down)
	payload := []byte{5, 6, 7, 8}
	drv.send(mustCells(t, up.Type, up.Endian, stbus.ST4, 0x10, payload, up.BusBytes(), 1, 0))
	drv.send(mustCells(t, up.Type, up.Endian, stbus.LD4, 0x10, nil, up.BusBytes(), 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	if mem.Peek(0x10) != 5 {
		t.Error("write lost through T2->T3 conversion")
	}
	rd := stbus.ExtractReadData(up.Endian, stbus.LD4, 0x10, drv.respPackets()[1], up.BusBytes())
	if !bytes.Equal(rd, payload) {
		t.Errorf("read %x", rd)
	}
}

func TestTypeConverterRejectsIllegalDownstreamOp(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type2, DataBits: 32}.WithDefaults()
	down := up
	down.Type = stbus.Type1
	sm, drv, _, _ := buildConvChain(t, up, down)
	// RMW is not in the Type 1 command set: the converter must answer an
	// upstream error response without touching the downstream side.
	drv.send(mustCells(t, up.Type, up.Endian, stbus.RMW4, 0x20, []byte{1, 2, 3, 4}, up.BusBytes(), 1, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 1 }, 300); err != nil {
		t.Fatal(err)
	}
	if !drv.respPackets()[0][0].Err() {
		t.Error("illegal downstream op must error")
	}
}

func TestTypeConverterT1Downstream(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type2, DataBits: 32}.WithDefaults()
	down := up
	down.Type = stbus.Type1
	sm, drv, conv, mem := buildConvChain(t, up, down)
	if conv.Cfg.Pipe != 1 {
		t.Fatalf("T1 converter pipe = %d, want 1", conv.Cfg.Pipe)
	}
	drv.send(mustCells(t, up.Type, up.Endian, stbus.ST4, 0x30, []byte{9, 9, 9, 9}, up.BusBytes(), 1, 0))
	drv.send(mustCells(t, up.Type, up.Endian, stbus.LD4, 0x30, nil, up.BusBytes(), 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	if mem.Peek(0x30) != 9 {
		t.Error("T1 downstream write lost")
	}
}

func TestConverterEndiannessRecoding(t *testing.T) {
	up := stbus.PortConfig{Type: stbus.Type3, DataBits: 32, Endian: stbus.BigEndian}.WithDefaults()
	down := up
	down.Endian = stbus.LittleEndian
	sm, drv, _, mem := buildConvChain(t, up, down)
	payload := []byte{1, 2, 3, 4}
	drv.send(mustCells(t, up.Type, up.Endian, stbus.ST4, 0x50, payload, up.BusBytes(), 1, 0))
	drv.send(mustCells(t, up.Type, up.Endian, stbus.LD4, 0x50, nil, up.BusBytes(), 2, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 2 }, 500); err != nil {
		t.Fatal(err)
	}
	// Memory content is lane-independent payload order.
	for i, b := range payload {
		if mem.Peek(0x50+uint64(i)) != b {
			t.Fatalf("byte %d = %#x through endian recode", i, mem.Peek(0x50+uint64(i)))
		}
	}
	rd := stbus.ExtractReadData(up.Endian, stbus.LD4, 0x50, drv.respPackets()[1], up.BusBytes())
	if !bytes.Equal(rd, payload) {
		t.Errorf("read %x", rd)
	}
}

func TestConverterConfigValidation(t *testing.T) {
	good := ConverterConfig{
		Up:   stbus.PortConfig{Type: stbus.Type3, DataBits: 64},
		Down: stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
	}
	if _, err := NewConverter(sim.Root(sim.New()), good); err != nil {
		t.Fatal(err)
	}
	bad := ConverterConfig{
		Up:   stbus.PortConfig{Type: stbus.Type3, DataBits: 64, AddrBits: 32},
		Down: stbus.PortConfig{Type: stbus.Type3, DataBits: 32, AddrBits: 40},
	}
	if _, err := NewConverter(sim.Root(sim.New()), bad); err == nil {
		t.Error("mismatched address widths should fail")
	}
}

func TestRegDecoderReadWrite(t *testing.T) {
	sm := sim.New()
	cfg := RegDecoderConfig{
		Port: stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		Base: 0x400, NumRegs: 4,
	}
	rd, err := NewRegDecoder(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var writes []uint32
	rd.OnWrite = func(reg int, v uint32) { writes = append(writes, v) }
	drv := attachInit(sm, rd.Port)
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST4, 0x404,
		[]byte{0x78, 0x56, 0x34, 0x12}, 4, 1, 0))
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.LD4, 0x404, nil, 4, 2, 0))
	// Illegal: ST8 into the register file.
	drv.send(mustCells(t, stbus.Type3, stbus.LittleEndian, stbus.ST8, 0x400,
		make([]byte, 8), 4, 3, 0))
	if err := sm.RunUntil(func() bool { return len(drv.respPackets()) == 3 }, 400); err != nil {
		t.Fatal(err)
	}
	if rd.Reg(1) != 0x12345678 {
		t.Errorf("reg1 = %#x", rd.Reg(1))
	}
	if len(writes) != 1 || writes[0] != 0x12345678 {
		t.Errorf("write hook %v", writes)
	}
	got := stbus.ExtractReadData(stbus.LittleEndian, stbus.LD4, 0x404, drv.respPackets()[1], 4)
	if got[0] != 0x78 || got[3] != 0x12 {
		t.Errorf("readback %x", got)
	}
	if !drv.respPackets()[2][0].Err() {
		t.Error("ST8 into register file must error")
	}
	rd.regs[2] = 7
	if rd.Reg(2) != 7 {
		t.Error("direct register access")
	}
}

func TestBindPanicsOnMismatch(t *testing.T) {
	sm := sim.New()
	a := stbus.NewPort(sim.Root(sm), "a", stbus.PortConfig{Type: stbus.Type3, DataBits: 32})
	b := stbus.NewPort(sim.Root(sm), "b", stbus.PortConfig{Type: stbus.Type3, DataBits: 64})
	defer func() {
		if recover() == nil {
			t.Error("binding mismatched widths should panic")
		}
	}()
	stbus.Bind(sm, a, b)
}
