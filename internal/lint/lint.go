// Package lint is the static-analysis layer of the verification flow: it
// checks bench configurations (nodespec.Config parameter sets, their address
// maps and port parameters) and whole regression matrices BEFORE any
// simulation cycle runs, the way the paper's regression tool "generates/
// compiles testbench configuration" up front. A mis-specified node — an
// overlapping address map, a partial-crossbar row that strands an initiator,
// a programming port without a base address — is reported here with a
// diagnostic code and a file:line position instead of surfacing mid-run
// after expensive cycles and VCD dumps.
//
// The package unifies the ad-hoc Validate() methods scattered across
// internal/nodespec, internal/stbus and internal/rtl behind one reporting
// API: every rule is a Diagnostic with a stable CRVE0xx code, a severity and
// a position, so the cmd/crvelint CLI, the regression gate in
// internal/regress and CI all consume the same report.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Code identifies one lint rule. Codes are stable across releases: tools and
// CI suppressions refer to them.
type Code string

// The diagnostic codes. See DESIGN.md for the rule table; each code has a
// dedicated analyzer test in lint_test.go and a trigger fixture under
// configs/bad/.
const (
	// CodeParse — the parameter file does not parse (bad syntax, unknown
	// key, malformed value).
	CodeParse Code = "CRVE000"
	// CodeRegionMalformed — an address-map region has zero size or wraps
	// past the end of the address space.
	CodeRegionMalformed Code = "CRVE001"
	// CodeRegionOverlap — two address-map regions overlap, making routing
	// order-dependent.
	CodeRegionOverlap Code = "CRVE002"
	// CodeRegionGap — a hole between consecutive regions: addresses in the
	// gap are answered with error responses, which is legal but almost
	// always a typo in hand-written maps.
	CodeRegionGap Code = "CRVE003"
	// CodeRegionTarget — a region routes to a target port index outside
	// [0, num_tgt).
	CodeRegionTarget Code = "CRVE004"
	// CodeTargetUnmapped — a target port no address-map region routes to:
	// the port exists in hardware but can never receive a request.
	CodeTargetUnmapped Code = "CRVE005"
	// CodeRegionAddrWidth — a region (or the programming region) extends
	// beyond the 2^addr_bits address space of the ports, so part of it is
	// unreachable on the bus.
	CodeRegionAddrWidth Code = "CRVE006"
	// CodeRegionAlign — a region boundary is not aligned to the data-bus
	// width: one bus-wide beat would straddle two targets.
	CodeRegionAlign Code = "CRVE007"
	// CodeAllowedShape — the partial-crossbar allowed matrix has the wrong
	// shape (rows != num_init or a row with cols != num_tgt).
	CodeAllowedShape Code = "CRVE008"
	// CodeInitiatorStranded — a partial-crossbar row is all zero: the
	// initiator port can reach no target at all.
	CodeInitiatorStranded Code = "CRVE009"
	// CodeTargetIsolated — a partial-crossbar column is all zero: no
	// initiator can ever reach the target.
	CodeTargetIsolated Code = "CRVE010"
	// CodeProgPort — the programming port is misconfigured: enabled without
	// prog_base, or its register region overlaps the address map or falls
	// beyond the address space.
	CodeProgPort Code = "CRVE011"
	// CodeProgArb — a programmable arbitration policy without a programming
	// port: the priority registers can never be written, so the policy is
	// frozen at the power-on defaults.
	CodeProgArb Code = "CRVE012"
	// CodePipeProtocol — pipe depth inconsistent with the protocol type:
	// a Type3 node with pipe 1 cannot overlap requests (its out-of-order
	// logic is unreachable), and non-power-of-two depths do not map onto
	// the RTL pipe stages.
	CodePipeProtocol Code = "CRVE013"
	// CodePortParam — an illegal port or node parameter: protocol type
	// (the node supports Type2/Type3 only), data width, address width,
	// endianness, port counts or pipe range.
	CodePortParam Code = "CRVE014"
	// CodeDupName — two configurations in the lint set share a name, so
	// their reports and VCD artifacts would overwrite each other.
	CodeDupName Code = "CRVE015"
	// CodeDupSeed — a seed appears twice in the seed list: the duplicate
	// run adds cycles but no new coverage.
	CodeDupSeed Code = "CRVE016"
	// CodeDeadBin — the configuration's functional-coverage model declares a
	// bin no stimulus can ever hit (e.g. completion_order/reordered on a
	// partial crossbar whose rows each reach a single target): full
	// functional coverage is statically impossible and coverage closure can
	// never converge.
	CodeDeadBin Code = "CRVE017"

	// The CRVE018–CRVE023 codes are the fabric layer (internal/fabric): they
	// judge a whole multi-node topology — configs plus a bind graph — rather
	// than one configuration at a time.

	// CodeBindMismatch — a bind edge (or a converter's own up/down pair)
	// joins two port bundles whose configurations differ; stbus.Bind would
	// panic at elaboration.
	CodeBindMismatch Code = "CRVE018"
	// CodeFabricUnreachable — an address window is dead across the fabric: a
	// mapped region routes downstream to hardware that serves none of it
	// (black hole), or no external initiator can reach it at all.
	CodeFabricUnreachable Code = "CRVE019"
	// CodeFabricShadow — an address window is only partially served across
	// hops: the upstream node claims the whole region but the downstream
	// fabric covers a subset, so part of the window silently error-responds.
	CodeFabricShadow Code = "CRVE020"
	// CodeFabricDangling — a port bundle is dangling (bound to nothing) or
	// doubly driven (appears in more than one bind edge), or a bind edge
	// connects two ports with the same drive direction.
	CodeFabricDangling Code = "CRVE021"
	// CodeFabricSrcID — the return path cannot distinguish responses: two
	// initiators that converge on the same node present the same source ID,
	// or a source ID does not fit the 8-bit src field.
	CodeFabricSrcID Code = "CRVE022"
	// CodeFabricCycle — the bind graph is cyclic. The gnt/r_gnt chains of
	// bound nodes are combinational, so a topological loop is a combinational
	// cycle that forces the levelized kernel back into SCC iteration.
	CodeFabricCycle Code = "CRVE023"
)

// Severity classifies a diagnostic.
type Severity int

const (
	// Warning marks a configuration that will run but is almost certainly
	// not what the author meant. Warnings do not gate the regression.
	Warning Severity = iota
	// Error marks a configuration that cannot run correctly; the regression
	// driver refuses the matrix unless -nolint is passed.
	Error
)

func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity?%d", int(s))
	}
}

// MarshalJSON emits the severity name, not the internal ordinal, so JSON
// consumers read "error"/"warning" rather than a bare number.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Position locates a diagnostic in a parameter file. Line 0 means "the file
// as a whole" (or a config synthesised in memory, where File is the
// configuration name).
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
}

func (p Position) String() string {
	switch {
	case p.File == "" && p.Line == 0:
		return "-"
	case p.Line == 0:
		return p.File
	default:
		return fmt.Sprintf("%s:%d", p.File, p.Line)
	}
}

// Diagnostic is one finding: a coded, positioned, severity-classified
// message.
type Diagnostic struct {
	Pos      Position `json:"pos"`
	Code     Code     `json:"code"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// Report accumulates diagnostics across configurations and matrix-level
// checks.
type Report struct {
	Diags []Diagnostic
}

// Add appends a diagnostic.
func (r *Report) Add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// Addf appends a diagnostic built from a format string.
func (r *Report) Addf(pos Position, code Code, sev Severity, format string, args ...any) {
	r.Add(Diagnostic{Pos: pos, Code: code, Severity: sev, Msg: fmt.Sprintf(format, args...)})
}

// Errors counts Error-severity diagnostics.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts Warning-severity diagnostics.
func (r *Report) Warnings() int { return len(r.Diags) - r.Errors() }

// HasErrors reports whether any Error-severity diagnostic was found.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// Sort orders diagnostics by file, line, code, then message, so reports are
// deterministic regardless of analyzer execution order.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// Text renders the report in the compiler-style one-line-per-diagnostic
// format, followed by a summary line.
func (r *Report) Text(w io.Writer) {
	for _, d := range r.Diags {
		fmt.Fprintln(w, d)
	}
	fmt.Fprintf(w, "%d error(s), %d warning(s)\n", r.Errors(), r.Warnings())
}

// JSON renders the report as a JSON object for machine consumers (CI
// annotations, editors).
func (r *Report) JSON(w io.Writer) error {
	diags := r.Diags
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
		Errors      int          `json:"errors"`
		Warnings    int          `json:"warnings"`
	}{diags, r.Errors(), r.Warnings()})
}

// Summary returns the one-line outcome of the report.
func (r *Report) Summary() string {
	if len(r.Diags) == 0 {
		return "lint clean"
	}
	var parts []string
	if n := r.Errors(); n > 0 {
		parts = append(parts, fmt.Sprintf("%d error(s)", n))
	}
	if n := r.Warnings(); n > 0 {
		parts = append(parts, fmt.Sprintf("%d warning(s)", n))
	}
	return strings.Join(parts, ", ")
}
