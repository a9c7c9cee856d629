package rtl

import (
	"fmt"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// ConverterConfig parameterises a protocol converter: a component with an
// upstream port (facing an initiator; the converter acts as target) and a
// downstream port (facing a target; the converter acts as initiator) whose
// interface configurations may differ in data width (size converter),
// protocol type (type converter), endianness, or any combination.
type ConverterConfig struct {
	Name string
	Up   stbus.PortConfig
	Down stbus.PortConfig
	// Pipe bounds the converter's outstanding packets (default 4; forced to
	// 1 when the upstream side is Type 1).
	Pipe int
}

// WithDefaults fills zero-valued fields.
func (c ConverterConfig) WithDefaults() ConverterConfig {
	c.Up = c.Up.WithDefaults()
	c.Down = c.Down.WithDefaults()
	if c.Name == "" {
		c.Name = "conv"
	}
	if c.Pipe == 0 {
		c.Pipe = 4
	}
	if c.Up.Type == stbus.Type1 || c.Down.Type == stbus.Type1 {
		c.Pipe = 1
	}
	return c
}

// Validate checks the configuration.
func (c ConverterConfig) Validate() error {
	if err := c.Up.Validate(); err != nil {
		return fmt.Errorf("rtl: converter up: %w", err)
	}
	if err := c.Down.Validate(); err != nil {
		return fmt.Errorf("rtl: converter down: %w", err)
	}
	if c.Up.AddrBits != c.Down.AddrBits {
		return fmt.Errorf("rtl: converter address widths differ (%d vs %d)", c.Up.AddrBits, c.Down.AddrBits)
	}
	if c.Pipe < 1 || c.Pipe > 64 {
		return fmt.Errorf("rtl: converter pipe %d out of range", c.Pipe)
	}
	return nil
}

type convPend struct {
	op   stbus.Opcode
	addr uint64
	tid  uint8
	src  uint8
}

// Converter is a store-and-forward STBus protocol converter: it accepts a
// whole request packet on the upstream interface, re-packetises it for the
// downstream interface (different width, protocol type and/or endianness),
// and converts the response packet back. Operations illegal on the
// downstream protocol (e.g. an RMW crossing into Type 1) are answered
// upstream with an error response.
//
// The Figure 1 interconnect of the paper uses converters as glue between
// nodes of different width (the "64/32" size converter) and type (the
// "t2/t3" type converters).
type Converter struct {
	Cfg ConverterConfig
	// Up faces the initiator side: the converter drives gnt and r_req.
	Up *stbus.Port
	// Down faces the target side: the converter drives req and r_gnt.
	Down *stbus.Port

	reqBuf  []stbus.Cell
	sendQ   []stbus.Cell
	sendIdx int

	pending []convPend

	respBuf []stbus.RespCell
	upQ     [][]stbus.RespCell
	upIdx   int
}

// NewConverter elaborates a converter under sc. See NewSizeConverter and
// NewTypeConverter for the named variants of the paper's component list.
func NewConverter(sc sim.Scope, cfg ConverterConfig) (*Converter, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cs := sc.Sub(cfg.Name)
	c := &Converter{
		Cfg:  cfg,
		Up:   stbus.NewPort(cs, "up", cfg.Up),
		Down: stbus.NewPort(cs, "down", cfg.Down),
	}
	cs.Seq("conv", c.seq)
	return c, nil
}

// NewSizeConverter elaborates a size converter: same protocol type both
// sides, different data width (the "64/32" block of the paper's Figure 1).
func NewSizeConverter(sc sim.Scope, name string, up stbus.PortConfig, downBits int) (*Converter, error) {
	down := up
	down.DataBits = downBits
	return NewConverter(sc, ConverterConfig{Name: name, Up: up, Down: down})
}

// NewTypeConverter elaborates a type converter: same width both sides,
// different protocol type (the "t2/t3" blocks of the paper's Figure 1).
func NewTypeConverter(sc sim.Scope, name string, up stbus.PortConfig, downType stbus.Type) (*Converter, error) {
	down := up
	down.Type = downType
	return NewConverter(sc, ConverterConfig{Name: name, Up: up, Down: down})
}

// gntUp reports whether the converter can accept an upstream request cell
// this cycle. Port-level occupancy counts packets from request acceptance
// until their response fully drains upstream: entries awaiting a downstream
// response (pending) plus converted responses still queued (upQ). This is
// what keeps a Pipe=1 converter Type 1 compliant — no new grant until the
// previous response completed.
func (c *Converter) gntUp() bool {
	if len(c.sendQ) > 0 {
		return false // previous packet still draining downstream
	}
	return len(c.pending)+len(c.upQ) < c.Cfg.Pipe
}

// seq is the converter's clocked process.
func (c *Converter) seq() {
	up, down := c.Up, c.Down
	// Upstream request capture.
	if up.ReqFire() {
		c.reqBuf = append(c.reqBuf, up.SampleCell())
		if c.reqBuf[len(c.reqBuf)-1].EOP {
			c.convertRequest()
			c.reqBuf = nil
		}
	}
	// Downstream request drive progress.
	if down.ReqFire() {
		c.sendIdx++
		if c.sendIdx == len(c.sendQ) {
			c.sendQ = nil
			c.sendIdx = 0
		}
	}
	// Downstream response capture.
	if down.RespFire() {
		c.respBuf = append(c.respBuf, down.SampleResp())
		if c.respBuf[len(c.respBuf)-1].EOP {
			c.convertResponse()
			c.respBuf = nil
		}
	}
	// Upstream response drive progress.
	if up.RespFire() {
		c.upIdx++
		if c.upIdx == len(c.upQ[0]) {
			c.upQ = c.upQ[1:]
			c.upIdx = 0
		}
	}
	// Drives for the next cycle.
	if len(c.sendQ) > 0 {
		down.DriveCell(c.sendQ[c.sendIdx])
	} else {
		down.IdleReq()
	}
	if len(c.upQ) > 0 {
		up.DriveResp(c.upQ[0][c.upIdx])
	} else {
		up.IdleResp()
	}
	up.Gnt.SetBool(c.gntUp())
	// One downstream response packet is converted at a time.
	down.RGnt.SetBool(len(c.respBuf) > 0 || len(c.upQ) == 0)
}

// convertRequest re-packetises the completed upstream packet for the
// downstream interface.
func (c *Converter) convertRequest() {
	upCfg, downCfg := c.Cfg.Up, c.Cfg.Down
	first := c.reqBuf[0]
	op, addr := first.Opc, first.Addr
	fail := func() {
		resp, err := stbus.BuildResponse(upCfg.Type, upCfg.Endian, op, addr, nil,
			upCfg.BusBytes(), first.TID, first.Src, true)
		if err != nil {
			resp = []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: first.TID, Src: first.Src}}
		}
		c.upQ = append(c.upQ, resp)
	}
	if !op.ValidFor(downCfg.Type, downCfg.BusBytes()) {
		fail()
		return
	}
	var payload []byte
	if op.HasWriteData() {
		payload = stbus.ExtractWriteData(upCfg.Endian, c.reqBuf, upCfg.BusBytes())
	}
	cells, err := stbus.BuildRequest(downCfg.Type, downCfg.Endian, op, addr, payload,
		downCfg.BusBytes(), first.TID, first.Src, first.Pri, first.Lck)
	if err != nil {
		fail()
		return
	}
	c.sendQ = cells
	c.sendIdx = 0
	c.pending = append(c.pending, convPend{op: op, addr: addr, tid: first.TID, src: first.Src})
}

// convertResponse re-packetises the completed downstream response for the
// upstream interface.
func (c *Converter) convertResponse() {
	upCfg, downCfg := c.Cfg.Up, c.Cfg.Down
	first := c.respBuf[0]
	idx := -1
	if downCfg.Type == stbus.Type3 {
		for k, pd := range c.pending {
			if pd.src == first.Src && pd.tid == first.TID {
				idx = k
				break
			}
		}
	} else if len(c.pending) > 0 {
		idx = 0
	}
	if idx < 0 {
		// Orphan downstream response: drop it; the port checker at the
		// downstream interface reports the protocol violation.
		return
	}
	pd := c.pending[idx]
	c.pending = append(c.pending[:idx], c.pending[idx+1:]...)
	respErr := false
	for _, cell := range c.respBuf {
		if cell.Err() {
			respErr = true
		}
	}
	var data []byte
	if pd.op.IsLoad() && !respErr {
		data = stbus.ExtractReadData(downCfg.Endian, pd.op, pd.addr, c.respBuf, downCfg.BusBytes())
	}
	resp, err := stbus.BuildResponse(upCfg.Type, upCfg.Endian, pd.op, pd.addr, data,
		upCfg.BusBytes(), pd.tid, pd.src, respErr)
	if err != nil {
		resp = []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: pd.tid, Src: pd.src}}
	}
	c.upQ = append(c.upQ, resp)
}
