// Package bca implements the bus-cycle-accurate (BCA) view of the STBus
// node: the "SystemC model" of the paper. It implements NODE-SPEC.md
// independently of internal/rtl — the two packages share only the protocol
// vocabulary (internal/stbus), the parameter set (internal/nodespec) and the
// arbitration policy specification (internal/arb), mirroring the paper's
// situation where the BCA and RTL models were written by different teams
// against the same functional specification.
//
// The package offers the model in two forms:
//
//   - Node — the model wrapped for the common verification environment: it
//     drives and samples real signals on a sim.Simulator, exactly like the
//     RTL view (the paper's Figure 3 wrapper stack). In this form the fast
//     transaction-level engine pays full signal-level cost, reproducing the
//     paper's observation that "the advantage of having fast SystemC
//     simulator is lost" when the model is plugged through the wrapper.
//
//   - Standalone — the engine driven by plain function calls, no simulator,
//     the way the model owner originally ran it. This is the fast form the
//     paper's Section 1 motivates, benchmarked in experiment E5.
//
// Bugs reproduces the paper's headline result ("The verification environment
// permitted to find five bugs on BCA models, not found using old
// environment"): five seedable, historically plausible model bugs that the
// common environment catches and the past flow does not.
package bca

// Bugs selects which of the five seeded BCA model bugs are active. The zero
// value is the fixed (signed-off) model.
type Bugs struct {
	// LRUInit mis-initialises the LRU arbitration state at reset, so the
	// first grants under contention go to the wrong initiator. Invisible to
	// single-initiator directed tests; caught by the alignment comparison
	// and by arbitration-order checkers under random multi-initiator
	// traffic.
	LRUInit bool
	// ChunkLckIgnored releases the target allocation at every end-of-packet,
	// ignoring a high lck: chunked transactions can be interleaved by other
	// initiators. Caught by the chunk-atomicity protocol checker.
	ChunkLckIgnored bool
	// PipeOffByOne accepts PipeSize+1 outstanding packets before
	// back-pressuring. Invisible with the old write-then-read harness (one
	// outstanding at a time); caught by the pipe-occupancy checker and by
	// alignment divergence under saturating random traffic.
	PipeOffByOne bool
	// ErrRespTIDZero builds error responses with tid 0 instead of echoing
	// the request tid, breaking Type III out-of-order matching on error
	// paths. The old flow never generated unmapped addresses.
	ErrRespTIDZero bool
	// T2OrderIgnored skips the Type II same-target ordering rule, letting
	// responses from targets of different speed return out of order on an
	// ordered protocol. Caught by the ordering protocol checker and the
	// scoreboard.
	T2OrderIgnored bool
}

// List returns the names of the enabled bugs.
func (b Bugs) List() []string {
	var out []string
	if b.LRUInit {
		out = append(out, "lru-init")
	}
	if b.ChunkLckIgnored {
		out = append(out, "chunk-lck-ignored")
	}
	if b.PipeOffByOne {
		out = append(out, "pipe-off-by-one")
	}
	if b.ErrRespTIDZero {
		out = append(out, "err-resp-tid-zero")
	}
	if b.T2OrderIgnored {
		out = append(out, "t2-order-ignored")
	}
	return out
}

// AllBugs enumerates each bug individually, for the E2 detection matrix.
func AllBugs() []Bugs {
	return []Bugs{
		{LRUInit: true},
		{ChunkLckIgnored: true},
		{PipeOffByOne: true},
		{ErrRespTIDZero: true},
		{T2OrderIgnored: true},
	}
}

// BugNames lists the bug identifiers in the same order as AllBugs.
func BugNames() []string {
	return []string{"lru-init", "chunk-lck-ignored", "pipe-off-by-one", "err-resp-tid-zero", "t2-order-ignored"}
}
