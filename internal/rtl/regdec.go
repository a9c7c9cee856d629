package rtl

import (
	"fmt"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// RegDecoderConfig parameterises a register decoder target.
type RegDecoderConfig struct {
	Name string
	Port stbus.PortConfig
	// Base is the address of register 0; register k lives at Base + 4k.
	Base uint64
	// NumRegs is the register-file size (32-bit registers).
	NumRegs int
}

// WithDefaults fills zero-valued fields.
func (c RegDecoderConfig) WithDefaults() RegDecoderConfig {
	c.Port = c.Port.WithDefaults()
	if c.Name == "" {
		c.Name = "regdec"
	}
	if c.NumRegs == 0 {
		c.NumRegs = 8
	}
	return c
}

// RegDecoder is the fourth basic STBus component of the paper's Section 3
// ("nodes, size converters, type converters and register decoders"): a leaf
// target exposing a 32-bit register file. Only ST4 and LD4 at register
// offsets are legal; everything else is answered with an error response.
// Writes are observable through the OnWrite hook (this is how peripherals
// hang their control registers on the bus).
type RegDecoder struct {
	Cfg  RegDecoderConfig
	Port *stbus.Port
	// OnWrite, when set, is called at the edge a register write completes.
	OnWrite func(reg int, value uint32)

	regs  []uint32
	cur   []stbus.Cell
	queue [][]stbus.RespCell
	idx   int
}

// NewRegDecoder elaborates a register decoder under sc.
func NewRegDecoder(sc sim.Scope, cfg RegDecoderConfig) (*RegDecoder, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Port.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumRegs < 1 || cfg.NumRegs > 1024 {
		return nil, fmt.Errorf("rtl: regdec with %d registers", cfg.NumRegs)
	}
	rs := sc.Sub(cfg.Name)
	r := &RegDecoder{
		Cfg:  cfg,
		Port: stbus.NewPort(rs, "port", cfg.Port),
		regs: make([]uint32, cfg.NumRegs),
	}
	rs.Seq("regdec", r.seq)
	return r, nil
}

// Reg reads register k directly (tests, firmware models).
func (r *RegDecoder) Reg(k int) uint32 { return r.regs[k] }

func (r *RegDecoder) seq() {
	p := r.Port
	if p.ReqFire() {
		r.cur = append(r.cur, p.SampleCell())
		if r.cur[len(r.cur)-1].EOP {
			r.queue = append(r.queue, r.serve(r.cur))
			r.cur = nil
		}
	}
	if p.RespFire() {
		r.idx++
		if r.idx == len(r.queue[0]) {
			r.queue = r.queue[1:]
			r.idx = 0
		}
	}
	if len(r.queue) > 0 {
		p.DriveResp(r.queue[0][r.idx])
	} else {
		p.IdleResp()
	}
	p.Gnt.SetBool(len(r.queue) < 2)
}

func (r *RegDecoder) serve(cells []stbus.Cell) []stbus.RespCell {
	cfg := r.Cfg
	first := cells[0]
	op, addr := first.Opc, first.Addr
	reg := int(addr-cfg.Base) / 4
	legal := addr >= cfg.Base && reg < cfg.NumRegs && (addr-cfg.Base)%4 == 0 &&
		(op == stbus.ST4 || op == stbus.LD4)
	errResp := func() []stbus.RespCell {
		resp, err := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, nil,
			cfg.Port.BusBytes(), first.TID, first.Src, true)
		if err != nil {
			return []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: first.TID, Src: first.Src}}
		}
		return resp
	}
	if !legal {
		return errResp()
	}
	if op == stbus.ST4 {
		data := stbus.ExtractWriteData(cfg.Port.Endian, cells, cfg.Port.BusBytes())
		v := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		r.regs[reg] = v
		if r.OnWrite != nil {
			r.OnWrite(reg, v)
		}
		resp, _ := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, nil,
			cfg.Port.BusBytes(), first.TID, first.Src, false)
		return resp
	}
	v := r.regs[reg]
	data := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	resp, _ := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, data,
		cfg.Port.BusBytes(), first.TID, first.Src, false)
	return resp
}
