// Package catg is this repository's equivalent of the paper's CATG library
// ("Checkers and Automatic Test Generation"): a generic verification
// component library for IPs with STBus interfaces. It provides
//
//   - harness BFMs: a constrained-random initiator and a memory-modelling
//     target, both seeded so that the same test file and seed produce the
//     same stimulus on the RTL and the BCA view;
//   - monitors that reconstruct transactions from port traffic;
//   - protocol checkers enforcing the STBus interface rules;
//   - a scoreboard checking data integrity through the DUT;
//   - a functional-coverage model derived from the DUT and traffic
//     configuration.
//
// Everything is configurable "according to the DUT configuration, in terms
// of bus size, protocol bus type, pipe size, endianess and some other
// parameters" (paper, Section 4).
package catg

import (
	"math/rand"

	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// TrafficConfig constrains the random stimulus of one initiator BFM: it is
// the machine-readable form of a CATG test file.
type TrafficConfig struct {
	// Ops is the number of operations to issue.
	Ops int
	// Kinds are the operation classes to draw from (default load+store).
	Kinds []stbus.OpKind
	// Sizes are the operand sizes in bytes to draw from (default 1..32).
	Sizes []int
	// Targets restricts generated addresses to these target indices
	// (default: every target reachable through the address map).
	Targets []int
	// UnmappedPct is the percentage of operations aimed at unmapped
	// addresses (error-path coverage).
	UnmappedPct int
	// ProgPct is the percentage of operations aimed at the programming
	// region (only meaningful when the DUT has a programming port).
	ProgPct int
	// ChunkPct is the percentage of operations that open a two-packet lck
	// chunk to one target.
	ChunkPct int
	// IdlePct is the percentage chance of an idle gap (1..4 cycles) before
	// an operation.
	IdlePct int
	// PriMax bounds the random request priority field.
	PriMax uint8
}

// WithDefaults fills zero-valued fields.
func (tc TrafficConfig) WithDefaults() TrafficConfig {
	if tc.Ops == 0 {
		tc.Ops = 50
	}
	if len(tc.Kinds) == 0 {
		tc.Kinds = []stbus.OpKind{stbus.KindLoad, stbus.KindStore}
	}
	if len(tc.Sizes) == 0 {
		tc.Sizes = []int{1, 2, 4, 8, 16, 32}
	}
	return tc
}

// Op is one generated operation: a request packet plus the idle gap that
// precedes it.
type Op struct {
	Cells      []stbus.Cell
	IdleBefore int
}

// GenerateOps produces the deterministic stimulus of initiator initIdx for
// the given DUT configuration, traffic constraints and seed. The same
// arguments always yield the same operation list — the property that lets
// the paper apply "same test cases on both [models] with same seeds".
func GenerateOps(node nodespec.Config, tc TrafficConfig, initIdx int, seed int64) []Op {
	node = node.WithDefaults()
	tc = tc.WithDefaults()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(initIdx)*7919))
	targets := tc.Targets
	if len(targets) == 0 {
		for t := 0; t < node.NumTgt; t++ {
			if node.Connected(initIdx, t) {
				targets = append(targets, t)
			}
		}
	}
	var ops []Op
	tid := uint8(0)
	nextTID := func() uint8 {
		v := tid
		tid = (tid + 1) % 64
		return v
	}
	buildOne := func(op stbus.Opcode, addr uint64, lck bool) (Op, bool) {
		var payload []byte
		if op.HasWriteData() {
			payload = make([]byte, op.SizeBytes())
			rng.Read(payload)
		}
		cells, err := stbus.BuildRequest(node.Port.Type, node.Port.Endian, op, addr, payload,
			node.Port.BusBytes(), nextTID(), uint8(initIdx), uint8(rng.Intn(int(tc.PriMax)+1)), lck)
		if err != nil {
			return Op{}, false
		}
		o := Op{Cells: cells}
		if rng.Intn(100) < tc.IdlePct {
			o.IdleBefore = 1 + rng.Intn(4)
		}
		return o, true
	}
	pickOp := func() stbus.Opcode {
		for {
			k := tc.Kinds[rng.Intn(len(tc.Kinds))]
			size := tc.Sizes[rng.Intn(len(tc.Sizes))]
			// RMW and swap are word-sized atomics.
			if (k == stbus.KindRMW || k == stbus.KindSwap) && size > 8 {
				size = 4
			}
			op := stbus.Op(k, size)
			if op.ValidFor(node.Port.Type, node.Port.BusBytes()) {
				return op
			}
		}
	}
	addrIn := func(t int, size int) uint64 {
		var regions []stbus.Region
		for _, r := range node.Map {
			if r.Target == t && r.Size >= uint64(size) {
				regions = append(regions, r)
			}
		}
		if len(regions) == 0 {
			return 0
		}
		r := regions[rng.Intn(len(regions))]
		slots := r.Size / uint64(size)
		return r.Base + (uint64(rng.Int63())%slots)*uint64(size)
	}
	for len(ops) < tc.Ops {
		roll := rng.Intn(100)
		switch {
		case roll < tc.UnmappedPct:
			op := stbus.Op(stbus.KindLoad, 4)
			if rng.Intn(2) == 1 {
				op = stbus.Op(stbus.KindStore, 4)
			}
			// Far above every mapped region and the programming window.
			addr := (uint64(0xF000_0000) + uint64(rng.Intn(1<<16))*4) & ^uint64(3)
			if o, ok := buildOne(op, addr, false); ok {
				ops = append(ops, o)
			}
		case node.ProgPort && roll < tc.UnmappedPct+tc.ProgPct:
			// Each initiator programs only its own priority register, so the
			// scoreboard's register model stays race-free under concurrent
			// traffic.
			addr := node.ProgBase + uint64(4*initIdx)
			op := stbus.LD4
			if rng.Intn(2) == 1 {
				op = stbus.ST4
			}
			if node.ProgBase%8 == 0 && rng.Intn(4) == 0 {
				// Illegal programming access (wrong operation size): the
				// register decoder must answer it with an error response.
				op = stbus.Op(op.Kind(), 8)
				addr = node.ProgBase
			}
			if o, ok := buildOne(op, addr, false); ok {
				ops = append(ops, o)
			}
		case len(targets) > 0 && len(ops) < tc.Ops-1 && roll < tc.UnmappedPct+tc.ProgPct+tc.ChunkPct:
			// A two-packet chunk to one target.
			t := targets[rng.Intn(len(targets))]
			op := pickOp()
			a1 := addrIn(t, op.SizeBytes())
			a2 := addrIn(t, op.SizeBytes())
			o1, ok1 := buildOne(op, a1, true)
			o2, ok2 := buildOne(op, a2, false)
			if ok1 && ok2 {
				o2.IdleBefore = 0 // chunks stream back to back
				ops = append(ops, o1, o2)
			}
		default:
			if len(targets) == 0 {
				// Nothing reachable: fall back to error traffic so the test
				// still exercises the port.
				if o, ok := buildOne(stbus.LD4, 0xF000_0000, false); ok {
					ops = append(ops, o)
				}
				continue
			}
			t := targets[rng.Intn(len(targets))]
			op := pickOp()
			if o, ok := buildOne(op, addrIn(t, op.SizeBytes()), false); ok {
				ops = append(ops, o)
			}
		}
	}
	return ops[:tc.Ops]
}
