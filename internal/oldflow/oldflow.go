// Package oldflow reproduces the paper's "past flow" baseline (Section 2):
// the BCA model verification as it was done before the common environment
// existed — a test bench written by the model owner, "based on a very basic
// model of harnesses ... doing write then read operations towards a memory
// model", with directive test cases and checks done visually.
//
// The baseline's weaknesses are structural, and this package keeps them on
// purpose so experiment E2 can measure them:
//
//   - a single active initiator (no arbitration contention);
//   - one outstanding operation at a time (no pipelining pressure);
//   - one memory target (no ordering or out-of-order traffic);
//   - only mapped addresses (no error paths);
//   - no protocol checkers, no scoreboard, no coverage — the only check is
//     the write-then-read data comparison and "it finished".
package oldflow

import (
	"bytes"
	"fmt"
	"math/rand"

	"crve/internal/bca"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// Result summarises a past-flow run.
type Result struct {
	// Passed reports whether the write-then-read checks succeeded — the old
	// flow's whole verdict.
	Passed bool
	// Ops is the number of write/read pairs executed.
	Ops int
	// Mismatches counts readback comparisons that failed.
	Mismatches int
	// Cycles is the run length.
	Cycles uint64
	// Notes carries the "visual check" observations a human would have made.
	Notes []string
}

// Run executes the past flow against a BCA model with the given seeded bugs
// and reports whether the old methodology notices anything wrong.
func Run(cfg nodespec.Config, bugs bca.Bugs, pairs int, seed int64) (*Result, error) {
	cfg = cfg.WithDefaults()
	sm := sim.New()
	node, err := bca.NewNode(sim.Root(sm), cfg, bugs)
	if err != nil {
		return nil, err
	}
	res := &Result{Ops: pairs}
	rng := rand.New(rand.NewSource(seed))

	// The memory model behind target 0 — the only target the old flow uses.
	attachSimpleMemory(sm, node.Tgt[0].Name, node)
	// Idle every other port: the model owner's bench never drove them.
	for i := 1; i < cfg.NumInit; i++ {
		p := node.Init[i]
		sm.Seq(p.Name+".idle", func() {
			p.IdleReq()
			p.RGnt.SetBool(true)
		})
	}
	for t := 1; t < cfg.NumTgt; t++ {
		p := node.Tgt[t]
		sm.Seq(p.Name+".idle", func() {
			p.Gnt.SetBool(true)
			p.IdleResp()
		})
	}

	// The directed write-then-read driver: one operation outstanding at a
	// time, strictly alternating ST4/LD4 over a handful of addresses.
	drv := &directedDriver{p: node.Init[0], rng: rng, pairs: pairs, cfg: cfg}
	sm.Seq("oldflow.driver", drv.tick)

	limit := 200 + pairs*200
	if err := sm.RunUntil(func() bool { return drv.done }, limit); err != nil {
		res.Notes = append(res.Notes, "simulation did not finish (would have been debugged by the model owner)")
		res.Cycles = sm.Cycle()
		return res, nil
	}
	res.Cycles = sm.Cycle()
	res.Mismatches = drv.mismatches
	res.Passed = drv.mismatches == 0
	if res.Passed {
		res.Notes = append(res.Notes, "waveforms looked fine (visual check)")
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("%d readback mismatches", drv.mismatches))
	}
	return res, nil
}

// directedDriver issues write-then-read pairs, one operation at a time.
type directedDriver struct {
	p     *stbus.Port
	rng   *rand.Rand
	cfg   nodespec.Config
	pairs int

	state      int // 0 = send write, 1 = wait write resp, 2 = send read, 3 = wait read resp
	pair       int
	cellIdx    int
	cells      []stbus.Cell
	addr       uint64
	written    []byte
	got        []byte
	mismatches int
	done       bool
	tid        uint8
}

func (d *directedDriver) buildOp(op stbus.Opcode, payload []byte) {
	d.tid++
	cells, err := stbus.BuildRequest(d.cfg.Port.Type, d.cfg.Port.Endian, op, d.addr, payload,
		d.cfg.Port.BusBytes(), d.tid, 0, 0, false)
	if err != nil {
		panic(err)
	}
	d.cells = cells
	d.cellIdx = 0
}

func (d *directedDriver) tick() {
	p := d.p
	p.RGnt.SetBool(true)
	if d.done {
		p.IdleReq()
		return
	}
	region := d.cfg.Map[0]
	switch d.state {
	case 0:
		d.addr = region.Base + uint64(d.rng.Intn(int(region.Size/4)))*4
		d.written = make([]byte, 4)
		d.rng.Read(d.written)
		d.buildOp(stbus.ST4, d.written)
		d.state = 1
	case 1, 3:
		if p.ReqFire() {
			d.cellIdx++
		}
		if p.RespFire() {
			cell := p.SampleResp()
			if d.state == 3 {
				d.got = append(d.got, stbus.UnpackByteLanes(d.cfg.Port.Endian,
					d.addr+uint64(len(d.got)), cell.Data, minInt(4-len(d.got), d.cfg.Port.BusBytes()),
					d.cfg.Port.BusBytes())...)
			}
			if cell.EOP {
				if d.state == 1 {
					d.state = 2
				} else {
					if !bytes.Equal(d.got, d.written) {
						d.mismatches++
					}
					d.got = nil
					d.pair++
					if d.pair >= d.pairs {
						d.done = true
					} else {
						d.state = 0
					}
				}
			}
		}
	case 2:
		d.buildOp(stbus.LD4, nil)
		d.state = 3
	}
	if d.cellIdx < len(d.cells) && (d.state == 1 || d.state == 3) {
		p.DriveCell(d.cells[d.cellIdx])
	} else {
		p.IdleReq()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// attachSimpleMemory is the old flow's memory model behind target port 0.
func attachSimpleMemory(sm *sim.Simulator, name string, node *bca.Node) {
	p := node.Tgt[0]
	cfg := p.Cfg
	var mem stbus.SparseMem
	var cur []stbus.Cell
	type pkt struct {
		resp []stbus.RespCell
		idx  int
	}
	var queue []*pkt
	sm.Seq(name+".mem", func() {
		if p.ReqFire() {
			cur = append(cur, p.SampleCell())
			if cur[len(cur)-1].EOP {
				queue = append(queue, &pkt{resp: mem.Serve(cfg, cur)})
				cur = nil
			}
		}
		if p.RespFire() {
			h := queue[0]
			h.idx++
			if h.idx == len(h.resp) {
				queue = queue[1:]
			}
		}
		if len(queue) > 0 {
			p.DriveResp(queue[0].resp[queue[0].idx])
		} else {
			p.IdleResp()
		}
		p.Gnt.SetBool(len(queue) < 2)
	})
}
