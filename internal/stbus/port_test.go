package stbus

import (
	"testing"

	"crve/internal/sim"
)

func testCfg() PortConfig {
	return PortConfig{Type: Type3, DataBits: 32, AddrBits: 32}
}

func TestPortConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []PortConfig{
		{Type: Type(0), DataBits: 32, AddrBits: 32},
		{Type: Type2, DataBits: 12, AddrBits: 32},
		{Type: Type2, DataBits: 512, AddrBits: 32},
		{Type: Type2, DataBits: 32, AddrBits: 65},
		{Type: Type2, DataBits: 32, AddrBits: 32, Endian: Endianness(5)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	if got := (PortConfig{Type: Type2, DataBits: 64}).WithDefaults().AddrBits; got != 32 {
		t.Errorf("default addr bits = %d", got)
	}
}

func TestPortSignalsAndNames(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "init0", testCfg())
	if p.Name != "init0" {
		t.Errorf("name %q", p.Name)
	}
	sigs := p.Signals()
	if len(sigs) != 18 {
		t.Fatalf("%d signals, want 18", len(sigs))
	}
	if p.Data.Width() != 32 || p.BE.Width() != 4 || p.Add.Width() != 32 {
		t.Error("signal widths wrong")
	}
	if p.Req.Name() != "init0.req" || p.RData.Name() != "init0.r_data" {
		t.Errorf("signal names %q %q", p.Req.Name(), p.RData.Name())
	}
}

func TestPortDriveSampleRoundTrip(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "p", testCfg())
	c := Cell{
		Opc: ST4, Addr: 0x1234, Data: sim.B64(0xdeadbeef), BE: 0xf,
		EOP: true, Lck: true, TID: 9, Src: 3, Pri: 5,
	}
	sm.Seq("drive", func() { p.DriveCell(c) })
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	got := p.SampleCell()
	if got != c {
		t.Errorf("SampleCell = %+v, want %+v", got, c)
	}
	if !p.Req.Bool() {
		t.Error("req should be asserted")
	}
}

func TestPortRespRoundTrip(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "p", testCfg())
	r := RespCell{ROpc: RespData | RespError, Data: sim.B64(0xcafe), EOP: true, TID: 2, Src: 1}
	sm.Seq("drive", func() { p.DriveResp(r) })
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if got := p.SampleResp(); got != r {
		t.Errorf("SampleResp = %+v, want %+v", got, r)
	}
	if !p.RReq.Bool() {
		t.Error("r_req should be asserted")
	}
}

func TestPortIdleClearsPayload(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "p", testCfg())
	step := 0
	sm.Seq("drive", func() {
		switch step {
		case 0:
			p.DriveCell(Cell{Opc: ST4, Addr: 0x10, Data: sim.B64(1), BE: 0xf, EOP: true})
			p.DriveResp(RespCell{ROpc: RespData, Data: sim.B64(2), EOP: true})
		case 1:
			p.IdleReq()
			p.IdleResp()
		}
		step++
	})
	if err := sm.Run(2); err != nil {
		t.Fatal(err)
	}
	if p.Req.Bool() || p.RReq.Bool() {
		t.Error("channels should be idle")
	}
	if c := p.SampleCell(); c != (Cell{}) {
		t.Errorf("request payload not cleared: %+v", c)
	}
	if r := p.SampleResp(); r != (RespCell{}) {
		t.Errorf("response payload not cleared: %+v", r)
	}
}

func TestReqRespFire(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "p", testCfg())
	sm.Seq("drive", func() {
		p.Req.SetBool(true)
		p.Gnt.SetBool(false)
	})
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if p.ReqFire() {
		t.Error("no fire without gnt")
	}
	sm2 := sim.New()
	q := NewPort(sim.Root(sm2), "q", testCfg())
	sm2.Seq("drive", func() {
		q.Req.SetBool(true)
		q.Gnt.SetBool(true)
		q.RReq.SetBool(true)
		q.RGnt.SetBool(true)
	})
	if err := sm2.Step(); err != nil {
		t.Fatal(err)
	}
	if !q.ReqFire() || !q.RespFire() {
		t.Error("both channels should fire")
	}
}

func TestNewPortPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPort with bad config should panic")
		}
	}()
	NewPort(sim.Root(sim.New()), "p", PortConfig{Type: Type2, DataBits: 7})
}

// channelSignals returns the 16 signals the drive methods cache.
func channelSignals(p *Port) []*sim.Signal {
	return []*sim.Signal{
		p.Req, p.Opc, p.Add, p.Data, p.BE, p.EOP, p.Lck, p.TID, p.Src, p.Pri,
		p.RReq, p.ROpc, p.RData, p.REOP, p.RTID, p.RSrc,
	}
}

// TestPortRedriveSchedulesNothing: re-driving the held cell or response, or
// idling an idle channel, schedules no write. A write placed on the wires
// earlier in the same cycle therefore survives the re-drive (the drive
// methods would have overwritten it), and nothing else commits.
func TestPortRedriveSchedulesNothing(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "p", testCfg())
	c := Cell{Opc: ST4, Addr: 0x20, Data: sim.B64(7), BE: 0xf, EOP: true, TID: 1, Src: 2, Pri: 3}
	r := RespCell{ROpc: RespData, Data: sim.B64(9), EOP: true, TID: 1, Src: 2}
	step := 0
	// "poke" runs first each cycle; on cycle 1 it puts marker values on the
	// wires behind the port's back.
	sm.Seq("poke", func() {
		if step == 1 {
			p.Opc.SetU64(0x55)
			p.RData.Set(sim.B64(0x66))
		}
	})
	sm.Seq("drive", func() {
		if step < 2 {
			p.DriveCell(c)
			p.DriveResp(r)
		}
		step++
	})
	w := sm.Watch(channelSignals(p))
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if n := len(w.Drain()); n == 0 {
		t.Fatal("the first drive committed nothing")
	}
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	if p.Opc.U64() != 0x55 || p.RData.Get() != sim.B64(0x66) {
		t.Errorf("re-drive scheduled writes: opc=%#x r_data=%v, want the markers 0x55 and 0x66",
			p.Opc.U64(), p.RData.Get())
	}
	if got := w.Drain(); len(got) != 2 {
		t.Errorf("cycle 1 committed %d channel changes, want only the 2 markers", len(got))
	}

	// An idle channel re-idled schedules nothing either.
	sm2 := sim.New()
	q := NewPort(sim.Root(sm2), "q", testCfg())
	sm2.Seq("poke", func() { q.Add.SetU64(0x77) })
	sm2.Seq("idle", func() {
		q.IdleReq()
		q.IdleResp()
	})
	if err := sm2.Step(); err != nil {
		t.Fatal(err)
	}
	if q.Add.U64() != 0x77 {
		t.Errorf("IdleReq on an idle channel scheduled writes: add=%#x, want the marker 0x77", q.Add.U64())
	}
}

// TestPortDriveIdleDriveSchedulesBothTransitions: the cache remembers the
// last drive, not the first, so driving c, idling and driving c again
// changes the wires twice.
func TestPortDriveIdleDriveSchedulesBothTransitions(t *testing.T) {
	sm := sim.New()
	p := NewPort(sim.Root(sm), "p", testCfg())
	c := Cell{Opc: LD4, Addr: 0x40, BE: 0xf, EOP: true, TID: 4}
	r := RespCell{ROpc: RespData, Data: sim.B64(3), EOP: true, TID: 4}
	step := 0
	sm.Seq("drive", func() {
		if step == 1 {
			p.IdleReq()
			p.IdleResp()
		} else {
			p.DriveCell(c)
			p.DriveResp(r)
		}
		step++
	})
	w := sm.Watch([]*sim.Signal{p.Req, p.RReq})
	for cyc, want := range []bool{true, false, true} {
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
		if n := len(w.Drain()); n != 2 {
			t.Errorf("cycle %d: %d of req/r_req changed, want 2", cyc, n)
		}
		if p.Req.Bool() != want || p.RReq.Bool() != want {
			t.Errorf("cycle %d: req=%v r_req=%v, want %v", cyc, p.Req.Bool(), p.RReq.Bool(), want)
		}
		if want && (p.SampleCell() != c || p.SampleResp() != r) {
			t.Errorf("cycle %d: wires hold %+v / %+v, want %+v / %+v", cyc, p.SampleCell(), p.SampleResp(), c, r)
		}
	}
}
