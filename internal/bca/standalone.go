package bca

import (
	"fmt"
	"math/rand"

	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// StandaloneConfig parameterises a standalone BCA run: the engine driven by
// plain function calls with built-in traffic generators and memory targets,
// no signal kernel — the fast simulation mode the paper's introduction
// motivates.
type StandaloneConfig struct {
	Node nodespec.Config
	// Seed drives the per-initiator traffic generators.
	Seed int64
	// OpsPerInit is the number of operations each initiator issues.
	OpsPerInit int
	// MemLatency is the response latency of every standalone memory target.
	MemLatency int
	// MaxCycles aborts a run that fails to drain (0 = generous default).
	MaxCycles uint64
}

// StandaloneResult summarises a standalone run.
type StandaloneResult struct {
	Cycles    uint64
	Completed int
	Errors    int
}

// standalone target: a plain-Go memory model with fixed latency.
type saMem struct {
	lat   int
	cyc   uint64
	cur   []stbus.Cell
	queue []saPkt
	mem   stbus.SparseMem
}

// saPkt is a response packet queued in a standalone target.
type saPkt struct {
	resp    []stbus.RespCell
	readyAt uint64
	idx     int
}

func (m *saMem) canAccept() bool { return len(m.queue) < 4 }

func (m *saMem) capture(cfg stbus.PortConfig, c stbus.Cell) {
	m.cur = append(m.cur, c)
	if !c.EOP {
		return
	}
	m.queue = append(m.queue, saPkt{resp: m.mem.Serve(cfg, m.cur), readyAt: m.cyc + uint64(m.lat)})
	// Serve does not keep the cells, so the buffer is reused across packets.
	m.cur = m.cur[:0]
}

func (m *saMem) offering() (stbus.RespCell, bool) {
	if len(m.queue) == 0 || m.cyc < m.queue[0].readyAt {
		return stbus.RespCell{}, false
	}
	return m.queue[0].resp[m.queue[0].idx], true
}

func (m *saMem) pop() {
	m.queue[0].idx++
	if m.queue[0].idx == len(m.queue[0].resp) {
		m.queue = m.queue[1:]
	}
}

// saDriver generates and streams seeded random packets for one initiator.
type saDriver struct {
	cells []stbus.Cell
	idx   int
}

// genTraffic builds the request stream of initiator i.
func genTraffic(cfg nodespec.Config, rng *rand.Rand, i, ops int) []stbus.Cell {
	sizes := []int{1, 2, 4, 8, 16, 32}
	var out []stbus.Cell
	for k := 0; k < ops; k++ {
		region := cfg.Map[rng.Intn(len(cfg.Map))]
		size := sizes[rng.Intn(len(sizes))]
		kind := stbus.KindLoad
		if rng.Intn(2) == 1 {
			kind = stbus.KindStore
		}
		op := stbus.Op(kind, size)
		span := region.Size - uint64(size)
		addr := region.Base + (uint64(rng.Int63())%(span/uint64(size)+1))*uint64(size)
		var payload []byte
		if op.HasWriteData() {
			payload = make([]byte, size)
			rng.Read(payload)
		}
		cells, err := stbus.BuildRequest(cfg.Port.Type, cfg.Port.Endian, op, addr, payload,
			cfg.Port.BusBytes(), uint8(k), uint8(i), 0, false)
		if err != nil {
			continue
		}
		out = append(out, cells...)
	}
	return out
}

// RunStandalone drives the BCA engine with function-call harnesses and
// returns the run summary. It performs the same per-cycle handshakes as the
// wrapped co-simulation, without any signal kernel — this is what makes the
// standalone BCA fast (experiment E5).
func RunStandalone(cfg StandaloneConfig) (StandaloneResult, error) {
	eng, err := NewEngine(cfg.Node, Bugs{})
	if err != nil {
		return StandaloneResult{}, err
	}
	nc := eng.cfg
	if cfg.OpsPerInit == 0 {
		cfg.OpsPerInit = 100
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = uint64(cfg.OpsPerInit) * uint64(nc.NumInit) * 1000
	}
	drivers := make([]*saDriver, nc.NumInit)
	expected := 0
	for i := range drivers {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		drivers[i] = &saDriver{cells: genTraffic(nc, rng, i, cfg.OpsPerInit)}
		for _, c := range drivers[i].cells {
			if c.EOP {
				expected++
			}
		}
	}
	mems := make([]*saMem, nc.NumTgt)
	for t := range mems {
		mems[t] = &saMem{lat: cfg.MemLatency}
	}
	in := NewInputs(nc)
	curTgtReq := make([]bool, nc.NumTgt)
	curTgtCell := make([]stbus.Cell, nc.NumTgt)
	curInitRsp := make([]bool, nc.NumInit)
	curInitRC := make([]stbus.RespCell, nc.NumInit)
	gnt := make([]bool, nc.NumInit)
	rgnt := make([]bool, nc.NumTgt)

	res := StandaloneResult{}
	for cyc := uint64(0); res.Completed < expected; cyc++ {
		if cyc > cfg.MaxCycles {
			return res, fmt.Errorf("bca: standalone run stalled after %d cycles (%d/%d responses)",
				cyc, res.Completed, expected)
		}
		// Snapshot the engine drives visible this cycle.
		copy(curTgtReq, eng.out.TgtReq)
		copy(curTgtCell, eng.out.TgtCell)
		copy(curInitRsp, eng.out.InitRsp)
		copy(curInitRC, eng.out.InitRC)
		// Build the cycle's inputs.
		for i, d := range drivers {
			if d.idx < len(d.cells) {
				c := d.cells[d.idx]
				in.Req[i] = true
				in.Addr[i] = c.Addr
				in.EOP[i] = c.EOP
				in.Lck[i] = c.Lck
				in.Pri[i] = c.Pri
			} else {
				in.Req[i] = false
				in.Addr[i], in.EOP[i], in.Lck[i], in.Pri[i] = 0, false, false, 0
			}
			in.RGnt[i] = true
		}
		for t, m := range mems {
			m.cyc = cyc
			in.TgtGnt[t] = m.canAccept()
			cell, ok := m.offering()
			in.TgtRResp[t] = ok
			in.TgtRSrc[t] = cell.Src
		}
		eng.Plan(in)
		copy(gnt, eng.out.Gnt)
		copy(rgnt, eng.out.RGnt)
		eng.Commit(in,
			func(i int) stbus.Cell { return drivers[i].cells[drivers[i].idx] },
			func(t int) stbus.RespCell { c, _ := mems[t].offering(); return c })
		// Harness bookkeeping for the completed cycle.
		for i, d := range drivers {
			if gnt[i] && d.idx < len(d.cells) {
				d.idx++
			}
			if curInitRsp[i] && in.RGnt[i] && curInitRC[i].EOP {
				res.Completed++
				if curInitRC[i].Err() {
					res.Errors++
				}
			}
		}
		for t, m := range mems {
			if curTgtReq[t] && in.TgtGnt[t] {
				m.capture(nc.Port, curTgtCell[t])
			}
			if rgnt[t] {
				if _, ok := m.offering(); ok {
					m.pop()
				}
			}
		}
		res.Cycles = cyc + 1
	}
	return res, nil
}
