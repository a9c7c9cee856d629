package stbus

import (
	"fmt"

	"crve/internal/sim"
)

// PortConfig holds the static parameters of an STBus interface, the same set
// the paper lists as CATG configuration parameters: protocol type, bus size
// and endianness (address width is also configurable; pipe size is a node
// parameter, see internal/rtl).
type PortConfig struct {
	Type     Type
	DataBits int // data bus width: 8, 16, 32, 64, 128 or 256
	AddrBits int // address width, 1..64 (0 means the default of 32)
	Endian   Endianness
}

// WithDefaults fills zero-valued fields with the usual STBus defaults.
func (c PortConfig) WithDefaults() PortConfig {
	if c.AddrBits == 0 {
		c.AddrBits = 32
	}
	return c
}

// Validate checks that the configuration describes a legal STBus interface.
func (c PortConfig) Validate() error {
	if !c.Type.Valid() {
		return fmt.Errorf("stbus: bad protocol type %d", int(c.Type))
	}
	switch c.DataBits {
	case 8, 16, 32, 64, 128, 256:
	default:
		return fmt.Errorf("stbus: bad data width %d (want 8..256 power of two)", c.DataBits)
	}
	if c.AddrBits < 1 || c.AddrBits > 64 {
		return fmt.Errorf("stbus: bad address width %d", c.AddrBits)
	}
	if c.Endian != LittleEndian && c.Endian != BigEndian {
		return fmt.Errorf("stbus: bad endianness %d", int(c.Endian))
	}
	return nil
}

// BusBytes returns the data bus width in bytes.
func (c PortConfig) BusBytes() int { return c.DataBits / 8 }

func (c PortConfig) String() string {
	return fmt.Sprintf("%v/%db/%v", c.Type, c.DataBits, c.Endian)
}

// Diff returns a human-readable entry per field where c and o differ, in
// declaration order (e.g. "data_bits 64 vs 32"). An empty slice means the
// configurations are identical. Bind's incompatibility panic and the fabric
// linter's CRVE018 diagnostic both print this diff, so a mismatch reads the
// same whether it is caught statically or escapes to elaboration.
func (c PortConfig) Diff(o PortConfig) []string {
	var d []string
	if c.Type != o.Type {
		d = append(d, fmt.Sprintf("type %v vs %v", c.Type, o.Type))
	}
	if c.DataBits != o.DataBits {
		d = append(d, fmt.Sprintf("data_bits %d vs %d", c.DataBits, o.DataBits))
	}
	if c.AddrBits != o.AddrBits {
		d = append(d, fmt.Sprintf("addr_bits %d vs %d", c.AddrBits, o.AddrBits))
	}
	if c.Endian != o.Endian {
		d = append(d, fmt.Sprintf("endian %v vs %v", c.Endian, o.Endian))
	}
	return d
}

// Port is the signal bundle of one STBus interface: a request channel
// (initiator drives req and the cell payload, target answers gnt) and a
// response channel (target drives r_req and the response payload, initiator
// answers r_gnt). A transfer happens on every cycle where both req and gnt
// (resp. r_req and r_gnt) are observed high at the cycle boundary.
//
// Type I uses the same wires with stricter rules: a single outstanding
// operation, so the response channel is only ever busy for the one pending
// request.
//
// The port remembers each channel's last drive, so DriveCell, IdleReq,
// DriveResp and IdleResp schedule nothing when the channel already holds
// that state: an idle or waiting port costs a comparison, not a write per
// wire. The cache is exact only because the 16 channel signals (Req
// through Pri, RReq through RSrc) are written only through those four
// methods — or, on the far side of a Bind, only by Bind's copy process,
// whose owner never drives them. The crvevet analyzer portdrive flags a
// direct Set on them outside this package. Gnt and RGnt are answered
// directly and are not cached.
type Port struct {
	Cfg  PortConfig
	Name string

	// Request channel.
	Req  *sim.Signal // initiator: transfer request valid
	Gnt  *sim.Signal // target: transfer accepted this cycle
	Opc  *sim.Signal // opcode (8)
	Add  *sim.Signal // address (AddrBits)
	Data *sim.Signal // write data (DataBits)
	BE   *sim.Signal // byte enables (DataBits/8)
	EOP  *sim.Signal // end of request packet
	Lck  *sim.Signal // chunk lock
	TID  *sim.Signal // transaction id (8)
	Src  *sim.Signal // source id (8)
	Pri  *sim.Signal // priority (4)

	// Response channel.
	RReq  *sim.Signal // target: response valid
	RGnt  *sim.Signal // initiator: response accepted this cycle
	ROpc  *sim.Signal // response opcode (8)
	RData *sim.Signal // read data (DataBits)
	REOP  *sim.Signal // end of response packet
	RTID  *sim.Signal // response transaction id (8)
	RSrc  *sim.Signal // response source id (8)

	// The last drive of each channel; the zero values are idle, which is
	// what fresh signals hold.
	reqOn, respOn bool
	reqCell       Cell
	respCell      RespCell
}

// NewPort creates the signal bundle under scope sc with the given instance
// name. It panics on an invalid configuration (ports are built during
// elaboration, where misconfiguration is a programming error).
func NewPort(sc sim.Scope, name string, cfg PortConfig) *Port {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := sc.Sub(name)
	return &Port{
		Cfg:  cfg,
		Name: p.Path(),
		Req:  p.Bool("req"),
		Gnt:  p.Bool("gnt"),
		Opc:  p.Signal("opc", 8),
		Add:  p.Signal("add", cfg.AddrBits),
		Data: p.Signal("data", cfg.DataBits),
		BE:   p.Signal("be", cfg.BusBytes()),
		EOP:  p.Bool("eop"),
		Lck:  p.Bool("lck"),
		TID:  p.Signal("tid", 8),
		Src:  p.Signal("src", 8),
		Pri:  p.Signal("pri", 4),

		RReq:  p.Bool("r_req"),
		RGnt:  p.Bool("r_gnt"),
		ROpc:  p.Signal("r_opc", 8),
		RData: p.Signal("r_data", cfg.DataBits),
		REOP:  p.Bool("r_eop"),
		RTID:  p.Signal("r_tid", 8),
		RSrc:  p.Signal("r_src", 8),
	}
}

// Signals returns every wire of the port in a stable order, for tracing and
// per-port alignment analysis.
func (p *Port) Signals() []*sim.Signal {
	return []*sim.Signal{
		p.Req, p.Gnt, p.Opc, p.Add, p.Data, p.BE, p.EOP, p.Lck, p.TID, p.Src, p.Pri,
		p.RReq, p.RGnt, p.ROpc, p.RData, p.REOP, p.RTID, p.RSrc,
	}
}

// DriveCell schedules the request-channel payload of cell c with req
// asserted, unless the channel already holds it.
func (p *Port) DriveCell(c Cell) {
	if p.reqOn && p.reqCell == c {
		return
	}
	p.reqOn, p.reqCell = true, c
	p.Req.SetBool(true)
	p.Opc.SetU64(uint64(c.Opc))
	p.Add.SetU64(c.Addr)
	p.Data.Set(c.Data)
	p.BE.SetU64(c.BE)
	p.EOP.SetBool(c.EOP)
	p.Lck.SetBool(c.Lck)
	p.TID.SetU64(uint64(c.TID))
	p.Src.SetU64(uint64(c.Src))
	p.Pri.SetU64(uint64(c.Pri))
}

// IdleReq schedules the request channel to idle (req low, payload cleared so
// waveforms of independent implementations stay comparable), unless it
// already is.
func (p *Port) IdleReq() {
	if !p.reqOn {
		return
	}
	p.reqOn, p.reqCell = false, Cell{}
	p.Req.SetBool(false)
	p.Opc.SetU64(0)
	p.Add.SetU64(0)
	p.Data.Set(sim.Bits{})
	p.BE.SetU64(0)
	p.EOP.SetBool(false)
	p.Lck.SetBool(false)
	p.TID.SetU64(0)
	p.Src.SetU64(0)
	p.Pri.SetU64(0)
}

// SampleCell reads the committed request-channel payload.
func (p *Port) SampleCell() Cell {
	return Cell{
		Opc:  Opcode(p.Opc.U64()),
		Addr: p.Add.U64(),
		Data: p.Data.Get(),
		BE:   p.BE.U64(),
		EOP:  p.EOP.Bool(),
		Lck:  p.Lck.Bool(),
		TID:  uint8(p.TID.U64()),
		Src:  uint8(p.Src.U64()),
		Pri:  uint8(p.Pri.U64()),
	}
}

// DriveResp schedules the response-channel payload of cell r with r_req
// asserted, unless the channel already holds it.
func (p *Port) DriveResp(r RespCell) {
	if p.respOn && p.respCell == r {
		return
	}
	p.respOn, p.respCell = true, r
	p.RReq.SetBool(true)
	p.ROpc.SetU64(uint64(r.ROpc))
	p.RData.Set(r.Data)
	p.REOP.SetBool(r.EOP)
	p.RTID.SetU64(uint64(r.TID))
	p.RSrc.SetU64(uint64(r.Src))
}

// IdleResp schedules the response channel to idle, unless it already is.
func (p *Port) IdleResp() {
	if !p.respOn {
		return
	}
	p.respOn, p.respCell = false, RespCell{}
	p.RReq.SetBool(false)
	p.ROpc.SetU64(0)
	p.RData.Set(sim.Bits{})
	p.REOP.SetBool(false)
	p.RTID.SetU64(0)
	p.RSrc.SetU64(0)
}

// SampleResp reads the committed response-channel payload.
func (p *Port) SampleResp() RespCell {
	return RespCell{
		ROpc: uint8(p.ROpc.U64()),
		Data: p.RData.Get(),
		EOP:  p.REOP.Bool(),
		TID:  uint8(p.RTID.U64()),
		Src:  uint8(p.RSrc.U64()),
	}
}

// ReqFire reports whether a request transfer completes this cycle.
func (p *Port) ReqFire() bool { return p.Req.Bool() && p.Gnt.Bool() }

// RespFire reports whether a response transfer completes this cycle.
func (p *Port) RespFire() bool { return p.RReq.Bool() && p.RGnt.Bool() }
