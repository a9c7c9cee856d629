package catg

import (
	"fmt"
	"slices"

	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Violation is one protocol-rule failure observed at a port.
type Violation struct {
	Cycle  uint64
	Port   string
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d %s [%s]: %s", v.Cycle, v.Port, v.Rule, v.Detail)
}

// Checker enforces the STBus interface rules at one port — the "Protocol
// checkers" of the paper's Figure 2/6. It is the signal-independent core of
// a checker: it steps once per cycle on the port's sample, read off the
// wires by the signal bench or filled from function calls by the ports
// bench, and tracks packets itself, because it judges
// what the port carries rather than what a BFM meant to send.
//
// The rule set covers the request handshake (payload stability, no request
// drops, alignment, opcode legality, packet length), the response channel
// (packet length, no interleaving, tid matching), protocol-type rules
// (Type 1 single-outstanding, Type 2 ordering) and DUT-level invariants
// derived from the node configuration (pipe occupancy, chunk atomicity).
type Checker struct {
	// Port names the checked port in violations.
	Port string
	// Node is the DUT configuration the checker validates against.
	Node nodespec.Config
	// InitiatorSide enables the initiator-port-only rules.
	InitiatorSide bool

	Violations []Violation

	route RouteFunc
	cyc   uint64

	// Request channel tracking.
	prevReq     bool
	prevGnt     bool
	prevCell    stbus.Cell
	reqCount    int
	reqFirst    stbus.Cell
	chunkOpen   bool
	chunkTarget int
	chunkSrc    uint8

	// Outstanding request packets (issue order).
	pending []checkerPending

	// Response channel tracking.
	respCount int
	respFirst stbus.RespCell
}

type checkerPending struct {
	op    stbus.Opcode
	addr  uint64
	tid   uint8
	src   uint8
	route int
}

// NewChecker builds the checker of the port named port. route classifies
// first-cell addresses (NodeRouter for initiator-side ports; nil for
// target-side ports).
func NewChecker(port string, node nodespec.Config, initiatorSide bool, route RouteFunc) *Checker {
	return &Checker{Port: port, Node: node.WithDefaults(), InitiatorSide: initiatorSide, route: route, chunkTarget: -1}
}

// clone returns a copy of the checker sharing no mutable state with c.
func (c *Checker) clone() *Checker {
	d := *c
	d.Violations = slices.Clone(c.Violations)
	d.pending = slices.Clone(c.pending)
	return &d
}

func (c *Checker) fail(rule, format string, args ...any) {
	c.Violations = append(c.Violations, Violation{
		Cycle: c.cyc, Port: c.Port, Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
}

// Step judges one cycle of the port.
func (c *Checker) Step(s *PortSample) {
	// Handshake rules against the previous cycle.
	if c.prevReq && !c.prevGnt {
		if !s.Req {
			c.fail("req-drop", "req deasserted while waiting for gnt")
		} else if s.Cell != c.prevCell {
			c.fail("stability", "request payload changed while waiting for gnt (%v -> %v)",
				c.prevCell, s.Cell)
		}
	}
	if s.ReqFire() {
		c.onReqCell(s.Cell)
	}
	c.prevReq, c.prevGnt, c.prevCell = s.Req, s.Gnt, s.Cell

	if s.RespFire() {
		c.onRespCell(s.Resp)
	}
	c.cyc++
}

func (c *Checker) onReqCell(cell stbus.Cell) {
	cfg := c.Node.Port
	if c.reqCount == 0 {
		c.reqFirst = cell
		if !cell.Opc.ValidFor(cfg.Type, cfg.BusBytes()) {
			c.fail("opcode", "opcode %#x illegal on %v/%d-bit port", uint8(cell.Opc), cfg.Type, cfg.DataBits)
		}
		if cell.Opc.Valid() && cell.Addr%uint64(cell.Opc.SizeBytes()) != 0 {
			c.fail("alignment", "%v at unaligned address %#x", cell.Opc, cell.Addr)
		}
		// Chunk atomicity.
		if c.InitiatorSide && c.route != nil {
			r := c.route(cell.Addr)
			if c.chunkOpen && r != c.chunkTarget {
				c.fail("chunk-break", "chunked initiator switched target %d -> %d", c.chunkTarget, r)
			}
			c.chunkTarget = r
		}
		if !c.InitiatorSide && c.chunkOpen && cell.Src != c.chunkSrc {
			c.fail("chunk-interleave", "src %d interleaved into chunk held by src %d",
				cell.Src, c.chunkSrc)
		}
		// Pipe occupancy (node back-pressure contract).
		if c.InitiatorSide && len(c.pending)+1 > c.Node.PipeSize {
			c.fail("pipe-overflow", "%d outstanding packets exceed pipe size %d",
				len(c.pending)+1, c.Node.PipeSize)
		}
		// Type 1: single outstanding.
		if cfg.Type == stbus.Type1 && len(c.pending) > 0 {
			c.fail("t1-outstanding", "Type 1 port with %d outstanding", len(c.pending))
		}
	} else {
		if cell.Opc != c.reqFirst.Opc {
			c.fail("opcode-change", "opcode changed mid-packet %v -> %v", c.reqFirst.Opc, cell.Opc)
		}
		if cell.TID != c.reqFirst.TID || cell.Src != c.reqFirst.Src {
			c.fail("tag-change", "tid/src changed mid-packet")
		}
	}
	c.reqCount++
	want := stbus.ReqLen(cfg.Type, c.reqFirst.Opc, cfg.BusBytes())
	if cell.EOP {
		if c.reqFirst.Opc.Valid() && c.reqCount != want {
			c.fail("packet-length", "%v request packet has %d cells, want %d",
				c.reqFirst.Opc, c.reqCount, want)
		}
		rt := 0
		if c.route != nil {
			rt = c.route(c.reqFirst.Addr)
		} else if !c.InitiatorSide {
			rt = 0 // target ports: the route is this target
		}
		c.pending = append(c.pending, checkerPending{
			op: c.reqFirst.Opc, addr: c.reqFirst.Addr, tid: c.reqFirst.TID,
			src: c.reqFirst.Src, route: rt,
		})
		c.chunkOpen = cell.Lck
		if cell.Lck {
			c.chunkSrc = c.reqFirst.Src
		}
		c.reqCount = 0
	} else if c.reqFirst.Opc.Valid() && c.reqCount >= want {
		c.fail("eop-missing", "%v request packet exceeded %d cells without eop", c.reqFirst.Opc, want)
		c.reqCount = 0
	}
}

func (c *Checker) onRespCell(cell stbus.RespCell) {
	cfg := c.Node.Port
	if c.respCount == 0 {
		c.respFirst = cell
	} else if cell.TID != c.respFirst.TID || cell.Src != c.respFirst.Src {
		c.fail("resp-interleave", "response packet interleaved (tid %d/%d src %d/%d)",
			c.respFirst.TID, cell.TID, c.respFirst.Src, cell.Src)
	}
	c.respCount++
	if !cell.EOP {
		return
	}
	count := c.respCount
	c.respCount = 0
	// Pair with a pending request.
	idx := -1
	if cfg.Type == stbus.Type3 {
		for k, pd := range c.pending {
			if pd.src == c.respFirst.Src && pd.tid == c.respFirst.TID {
				idx = k
				break
			}
		}
		if idx < 0 {
			c.fail("resp-unknown-tag", "response (src=%d tid=%d) matches no outstanding request",
				c.respFirst.Src, c.respFirst.TID)
			return
		}
	} else {
		if len(c.pending) == 0 {
			c.fail("resp-orphan", "response with no outstanding request")
			return
		}
		idx = 0
		pd := c.pending[0]
		if pd.src != c.respFirst.Src || pd.tid != c.respFirst.TID {
			c.fail("order", "%v response (src=%d tid=%d) out of order, expected (src=%d tid=%d)",
				cfg.Type, c.respFirst.Src, c.respFirst.TID, pd.src, pd.tid)
			// Fall back to tag matching so one ordering bug does not cascade.
			for k, q := range c.pending {
				if q.src == c.respFirst.Src && q.tid == c.respFirst.TID {
					idx = k
					break
				}
			}
		}
	}
	pd := c.pending[idx]
	c.pending = append(c.pending[:idx], c.pending[idx+1:]...)
	want := stbus.RespLen(cfg.Type, pd.op, cfg.BusBytes())
	if pd.op.Valid() && count != want {
		c.fail("resp-length", "%v response packet has %d cells, want %d", pd.op, count, want)
	}
	if pd.route == RouteUnmapped && !cell.Err() {
		c.fail("err-expected", "unmapped access (addr %#x) answered without error flag", pd.addr)
	}
}
