package rtl

import (
	"fmt"

	"crve/internal/sim"
	"crve/internal/stbus"
)

// MemoryConfig parameterises a Memory target.
type MemoryConfig struct {
	Name string
	Port stbus.PortConfig
	// Base and Size bound the decoded address window; accesses outside it
	// answer with error responses.
	Base, Size uint64
	// Latency is the number of cycles between receiving the last request
	// cell of a packet and offering its first response cell.
	Latency int
	// GntGap inserts this many dead cycles after every accepted request
	// cell, modelling a slow target ("different speed" targets are how the
	// paper's test cases force out-of-order traffic).
	GntGap int
	// QueueDepth bounds the packets in flight inside the memory.
	QueueDepth int
}

// WithDefaults fills zero-valued fields.
func (c MemoryConfig) WithDefaults() MemoryConfig {
	c.Port = c.Port.WithDefaults()
	if c.Name == "" {
		c.Name = "mem"
	}
	if c.Size == 0 {
		c.Size = 1 << 20
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2
	}
	return c
}

type memPacket struct {
	cells   []stbus.Cell
	resp    []stbus.RespCell
	readyAt uint64
	idx     int
}

// Memory is a deterministic RTL memory target: it stores bytes sparsely,
// serves the full STBus operation set, and exposes configurable grant gaps
// and latency. It is the leaf target of the example interconnects; the
// verification environment's target harness (internal/catg) additionally
// randomises timing from the test seed.
type Memory struct {
	Cfg  MemoryConfig
	Port *stbus.Port

	mem     stbus.SparseMem
	cur     []stbus.Cell
	queue   []*memPacket
	gap     int
	cycle   uint64
	gntNext bool
}

// NewMemory elaborates a memory target under sc.
func NewMemory(sc sim.Scope, cfg MemoryConfig) (*Memory, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Port.Validate(); err != nil {
		return nil, err
	}
	ms := sc.Sub(cfg.Name)
	m := &Memory{
		Cfg:  cfg,
		Port: stbus.NewPort(ms, "port", cfg.Port),
	}
	ms.Seq("mem", m.seq)
	return m, nil
}

// Peek reads a byte directly, for tests and scoreboards.
func (m *Memory) Peek(addr uint64) byte { return m.mem.Byte(addr) }

// Poke writes a byte directly, for test preconditioning.
func (m *Memory) Poke(addr uint64, v byte) { m.mem.Write(addr, []byte{v}) }

// inFlight counts packets being received or awaiting/streaming responses.
func (m *Memory) inFlight() int {
	n := len(m.queue)
	if len(m.cur) > 0 {
		n++
	}
	return n
}

func (m *Memory) seq() {
	p := m.Port
	m.cycle++
	// Accept a request cell if we offered gnt and the initiator requested.
	if p.ReqFire() {
		m.cur = append(m.cur, p.SampleCell())
		m.gap = m.Cfg.GntGap
		if m.cur[len(m.cur)-1].EOP {
			m.queue = append(m.queue, m.servePacket(m.cur))
			m.cur = nil
		}
	} else if m.gap > 0 {
		m.gap--
	}
	// Stream response cells.
	if p.RespFire() {
		head := m.queue[0]
		head.idx++
		if head.idx == len(head.resp) {
			m.queue = m.queue[1:]
		}
	}
	if len(m.queue) > 0 && m.cycle >= m.queue[0].readyAt {
		head := m.queue[0]
		p.DriveResp(head.resp[head.idx])
	} else {
		p.IdleResp()
	}
	// Offer grant for the next cycle.
	m.gntNext = m.inFlight() < m.Cfg.QueueDepth && m.gap == 0
	p.Gnt.SetBool(m.gntNext)
}

// servePacket executes a completed request packet against the byte store and
// builds its response packet.
func (m *Memory) servePacket(cells []stbus.Cell) *memPacket {
	cfg := &m.Cfg
	first := cells[0]
	op, addr := first.Opc, first.Addr
	size := op.SizeBytes()
	pk := &memPacket{cells: cells, readyAt: m.cycle + uint64(cfg.Latency)}
	inWindow := addr >= cfg.Base && addr+uint64(size) <= cfg.Base+cfg.Size
	if !inWindow || !op.Valid() {
		pk.resp = m.errResp(op, addr, first)
		return pk
	}
	var readData []byte
	if op.IsLoad() {
		readData = make([]byte, size)
		m.mem.Read(addr, readData)
	}
	if op.HasWriteData() {
		m.mem.Write(addr, stbus.ExtractWriteData(cfg.Port.Endian, cells, cfg.Port.BusBytes()))
	}
	resp, err := stbus.BuildResponse(cfg.Port.Type, cfg.Port.Endian, op, addr, readData,
		cfg.Port.BusBytes(), first.TID, first.Src, false)
	if err != nil {
		resp = m.errResp(op, addr, first)
	}
	pk.resp = resp
	return pk
}

func (m *Memory) errResp(op stbus.Opcode, addr uint64, first stbus.Cell) []stbus.RespCell {
	resp, err := stbus.BuildResponse(m.Cfg.Port.Type, m.Cfg.Port.Endian, op, addr, nil,
		m.Cfg.Port.BusBytes(), first.TID, first.Src, true)
	if err != nil {
		return []stbus.RespCell{{ROpc: stbus.RespError, EOP: true, TID: first.TID, Src: first.Src}}
	}
	return resp
}

func (m *Memory) String() string {
	return fmt.Sprintf("mem %s [%#x+%#x] lat=%d gap=%d", m.Cfg.Name, m.Cfg.Base, m.Cfg.Size,
		m.Cfg.Latency, m.Cfg.GntGap)
}
