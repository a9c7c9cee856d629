package coverage

import (
	"fmt"
	"sort"
	"strings"
)

// PointKind distinguishes the three code-coverage metrics the paper uses:
// "The code coverage metrics we use are line, branch and statement
// coverage."
type PointKind int

const (
	// LinePoint marks an executable line.
	LinePoint PointKind = iota
	// StmtPoint marks a statement (several may share a line).
	StmtPoint
	// BranchPoint marks a two-way decision; both directions must be seen.
	BranchPoint
)

func (k PointKind) String() string {
	switch k {
	case LinePoint:
		return "line"
	case StmtPoint:
		return "statement"
	case BranchPoint:
		return "branch"
	default:
		return fmt.Sprintf("kind?%d", int(k))
	}
}

type codePoint struct {
	kind      PointKind
	hits      uint64 // line/stmt hits, or branch taken-count
	missHits  uint64 // branch not-taken count
	justified bool
}

// CodeMap is the code-coverage instrumentation of one RTL model. RTL
// processes declare points during elaboration and hit them during
// simulation; the regression tool reads the report after each run.
//
// The BCA view deliberately has no CodeMap: reproducing the paper's
// asymmetry that code coverage "can be applied only in the RTL
// verification".
type CodeMap struct {
	points map[string]*codePoint
	order  []string
}

// NewCodeMap returns an empty instrumentation map.
func NewCodeMap() *CodeMap {
	return &CodeMap{points: make(map[string]*codePoint)}
}

// Declare registers a coverage point. Declaring the same name twice is a
// no-op so elaboration loops stay simple.
func (m *CodeMap) Declare(kind PointKind, name string) {
	if _, ok := m.points[name]; ok {
		return
	}
	m.points[name] = &codePoint{kind: kind}
	m.order = append(m.order, name)
}

// Line declares-and-hits a line point.
func (m *CodeMap) Line(name string) {
	m.Declare(LinePoint, name)
	m.points[name].hits++
}

// Branch declares-and-hits one direction of a branch point.
func (m *CodeMap) Branch(name string, taken bool) {
	m.Declare(BranchPoint, name)
	p := m.points[name]
	if taken {
		p.hits++
	} else {
		p.missHits++
	}
}

// Point is a preresolved handle to one declared code-coverage point.
// Instrumentation hot enough that the per-hit map lookup matters resolves its
// handles once at elaboration and hits through them during simulation — a
// counter increment instead of a string hash. Handles stay valid for the
// map's lifetime: Merge mutates the points in place.
type Point struct{ p *codePoint }

// Point declares the coverage point (a no-op when already declared) and
// returns its preresolved handle.
func (m *CodeMap) Point(kind PointKind, name string) Point {
	m.Declare(kind, name)
	return Point{m.points[name]}
}

// Hit records one execution of a line or statement point.
func (pt Point) Hit() { pt.p.hits++ }

// Branch records one evaluation of a branch point's direction.
func (pt Point) Branch(taken bool) {
	if taken {
		pt.p.hits++
	} else {
		pt.p.missHits++
	}
}

// Justify marks a point as analysed-unreachable for this configuration, so
// it counts as covered in the "justified" metric (the paper's goal is
// "100 % of justified code for the line coverage").
func (m *CodeMap) Justify(name string) error {
	p, ok := m.points[name]
	if !ok {
		return fmt.Errorf("coverage: cannot justify unknown point %q", name)
	}
	p.justified = true
	return nil
}

// covered reports whether a point is fully exercised.
func (p *codePoint) covered() bool {
	if p.justified {
		return true
	}
	if p.kind == BranchPoint {
		return p.hits > 0 && p.missHits > 0
	}
	return p.hits > 0
}

// Percent returns the coverage percentage for one metric kind (100 when no
// points of that kind exist).
func (m *CodeMap) Percent(kind PointKind) float64 {
	hit, total := 0, 0
	for _, p := range m.points {
		if p.kind != kind {
			continue
		}
		total++
		if p.covered() {
			hit++
		}
	}
	if total == 0 {
		return 100
	}
	return 100 * float64(hit) / float64(total)
}

// Holes returns the unexercised, unjustified points of a kind, sorted.
func (m *CodeMap) Holes(kind PointKind) []string {
	var h []string
	for name, p := range m.points {
		if p.kind == kind && !p.covered() {
			h = append(h, name)
		}
	}
	sort.Strings(h)
	return h
}

// Merge accumulates another map's hits (and justifications) into m,
// declaring any missing points. The regression tool uses it to fold the
// per-run RTL code coverage of a whole test suite into one report.
func (m *CodeMap) Merge(o *CodeMap) {
	for _, name := range o.order {
		op := o.points[name]
		m.Declare(op.kind, name)
		p := m.points[name]
		p.hits += op.hits
		p.missHits += op.missHits
		if op.justified {
			p.justified = true
		}
	}
}

// Points returns the number of declared points of a kind.
func (m *CodeMap) Points(kind PointKind) int {
	n := 0
	for _, p := range m.points {
		if p.kind == kind {
			n++
		}
	}
	return n
}

// Report renders the code-coverage report of a run.
func (m *CodeMap) Report() string {
	var sb strings.Builder
	sb.WriteString("code coverage (RTL only):\n")
	for _, k := range []PointKind{LinePoint, BranchPoint, StmtPoint} {
		fmt.Fprintf(&sb, "  %-9s %6.1f%%  (%d points", k, m.Percent(k), m.Points(k))
		if holes := m.Holes(k); len(holes) > 0 {
			max := holes
			if len(max) > 4 {
				max = max[:4]
			}
			fmt.Fprintf(&sb, ", holes: %s", strings.Join(max, ","))
			if len(holes) > 4 {
				fmt.Fprintf(&sb, ",… %d total", len(holes))
			}
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}
