package coverage

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestItemHitAndCovered(t *testing.T) {
	g := NewGroup("g")
	it := g.Item("opcode", "LD4", "ST4", "RMW4")
	it.Hit("LD4")
	it.Hit("LD4")
	it.Hit("ST4")
	h, tot := it.Covered()
	if h != 2 || tot != 3 {
		t.Fatalf("covered %d/%d, want 2/3", h, tot)
	}
	if it.Hits("LD4") != 2 || it.Hits("RMW4") != 0 || it.Hits("nope") != 0 {
		t.Error("hit counts wrong")
	}
	if holes := it.Holes(); len(holes) != 1 || holes[0] != "RMW4" {
		t.Errorf("holes = %v", holes)
	}
}

func TestItemHitUnknownPanics(t *testing.T) {
	g := NewGroup("g")
	it := g.Item("x", "a")
	defer func() {
		if recover() == nil {
			t.Error("Hit on undeclared bin should panic")
		}
	}()
	it.Hit("b")
}

func TestItemHitOK(t *testing.T) {
	g := NewGroup("g")
	it := g.Item("x", "a")
	if !it.HitOK("a") || it.HitOK("b") {
		t.Error("HitOK wrong")
	}
}

// TestItemLookupScanAndIndex exercises both bin lookups: small items scan
// their bins, larger ones go through the name index. Each must find every
// declared bin, miss undeclared ones and refuse duplicate declarations.
func TestItemLookupScanAndIndex(t *testing.T) {
	for _, n := range []int{1, scanLimit, scanLimit + 1, 40} {
		bins := make([]string, n)
		for i := range bins {
			bins[i] = fmt.Sprintf("b%d", i)
		}
		it := NewGroup("g").Item("x", bins...)
		for i, b := range bins {
			for k := 0; k <= i; k++ {
				it.Hit(b)
			}
		}
		for i, b := range bins {
			if got := it.Hits(b); got != uint64(i+1) {
				t.Errorf("%d bins: %s hit %d times, want %d", n, b, got, i+1)
			}
		}
		if it.Counter(bins[n-1]) != it.Counter(bins[n-1]) || it.Counter("nope") != nil || it.HitOK("nope") {
			t.Errorf("%d bins: counter lookup wrong", n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d bins: duplicate declaration must panic", n)
				}
			}()
			NewGroup("g").Item("x", append(bins, bins[n-1])...)
		}()

		// The same two regimes for items within a group.
		g := NewGroup("g")
		for _, b := range bins {
			g.Item(b, "hit")
		}
		for i, it := range g.Items() {
			if it.Name != bins[i] || g.MustItem(bins[i]) != it || g.Item(bins[i], "other") != it {
				t.Errorf("%d items: item %d lookup wrong", n, i)
			}
		}
	}
}

// TestGroupHolesDeclarationOrder pins the Holes() contract: unhit bins come
// back in declaration order — items as declared, bins as declared within each
// item — never in map-range order, so hole lists (and everything downstream:
// closure plans, reports, goldens) are deterministic.
func TestGroupHolesDeclarationOrder(t *testing.T) {
	build := func() *Group {
		g := NewGroup("g")
		// Deliberately non-alphabetical declaration order on both levels.
		g.Item("zeta", "m", "a", "k")
		g.Item("alpha", "z", "b")
		g.Item("mid", "q")
		return g
	}
	g := build()
	g.MustItem("zeta").Hit("a")
	g.MustItem("alpha").Hit("z")
	want := []Hole{{"zeta", "m"}, {"zeta", "k"}, {"alpha", "b"}, {"mid", "q"}}
	got := g.Holes()
	if len(got) != len(want) {
		t.Fatalf("holes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hole %d = %v, want %v (declaration order violated)", i, got[i], want[i])
		}
	}
	// Identical groups must produce byte-identical hole lists, run after run.
	h := build()
	h.MustItem("zeta").Hit("a")
	h.MustItem("alpha").Hit("z")
	for i, hole := range h.Holes() {
		if hole != got[i] {
			t.Fatalf("hole order differs between identical groups at %d: %v vs %v", i, hole, got[i])
		}
	}
	if s := (Hole{Item: "a", Bin: "b"}).String(); s != "a/b" {
		t.Errorf("Hole.String = %q", s)
	}
	full := build()
	for _, it := range full.Items() {
		for _, hole := range it.Holes() {
			it.Hit(hole)
		}
	}
	if holes := full.Holes(); len(holes) != 0 {
		t.Errorf("full group has holes: %v", holes)
	}
}

func TestGroupPercentAndFull(t *testing.T) {
	g := NewGroup("g")
	a := g.Item("a", "x", "y")
	b := g.Item("b", "z")
	if g.Full() {
		t.Error("empty hits should not be full")
	}
	a.Hit("x")
	if got := g.Percent(); got < 33 || got > 34 {
		t.Errorf("percent = %f", got)
	}
	a.Hit("y")
	b.Hit("z")
	if !g.Full() || g.Percent() != 100 {
		t.Error("should be full")
	}
	if NewGroup("empty").Percent() != 100 {
		t.Error("empty group percent should be 100")
	}
}

func TestItemIdempotentDeclaration(t *testing.T) {
	g := NewGroup("g")
	a1 := g.Item("a", "x")
	a2 := g.Item("a", "ignored")
	if a1 != a2 {
		t.Error("re-declaring an item should return the same item")
	}
	if len(g.Items()) != 1 {
		t.Error("duplicate item created")
	}
}

func TestCross(t *testing.T) {
	g := NewGroup("g")
	op := g.Item("op", "LD", "ST")
	tgt := g.Item("tgt", "0", "1", "2")
	cr := g.Cross("op_x_tgt", op, tgt)
	if _, tot := cr.Covered(); tot != 6 {
		t.Fatalf("cross bins = %d, want 6", tot)
	}
	g.HitCross("op_x_tgt", "LD", "2")
	if cr.Hits("LD×2") != 1 {
		t.Error("cross hit not recorded")
	}
}

func TestMergeAndEqualHits(t *testing.T) {
	build := func() *Group {
		g := NewGroup("g")
		g.Item("a", "x", "y")
		return g
	}
	g1, g2 := build(), build()
	g1.MustItem("a").Hit("x")
	g2.MustItem("a").Hit("x")
	if eq, why := g1.EqualHits(g2); !eq {
		t.Fatalf("should be equal: %s", why)
	}
	g2.MustItem("a").Hit("y")
	if eq, _ := g1.EqualHits(g2); eq {
		t.Fatal("should differ")
	}
	if err := g1.Merge(g2); err != nil {
		t.Fatal(err)
	}
	if g1.MustItem("a").Hits("x") != 2 || g1.MustItem("a").Hits("y") != 1 {
		t.Error("merge sums wrong")
	}
	other := NewGroup("g")
	other.Item("b", "z")
	if err := g1.Merge(other); err == nil {
		t.Error("merging mismatched groups should fail")
	}
}

func TestGroupReportAndDump(t *testing.T) {
	g := NewGroup("stbus")
	it := g.Item("op", "LD", "ST")
	it.Hit("LD")
	r := g.Report()
	if !strings.Contains(r, "stbus") || !strings.Contains(r, "holes: ST") {
		t.Errorf("report missing content:\n%s", r)
	}
	d := g.SortedBinDump()
	if !strings.Contains(d, "op/LD=1") || !strings.Contains(d, "op/ST=0") {
		t.Errorf("dump = %q", d)
	}
}

// Property: merging two copies of the same sampling doubles every hit count
// and preserves equality structure.
func TestMergeDoublesProperty(t *testing.T) {
	f := func(hits []uint8) bool {
		g1 := NewGroup("g")
		g2 := NewGroup("g")
		i1 := g1.Item("it", "a", "b", "c")
		i2 := g2.Item("it", "a", "b", "c")
		bins := []string{"a", "b", "c"}
		for _, h := range hits {
			i1.Hit(bins[int(h)%3])
			i2.Hit(bins[int(h)%3])
		}
		if err := g1.Merge(g2); err != nil {
			return false
		}
		for _, b := range bins {
			if i1.Hits(b) != 2*i2.Hits(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeMapMetrics(t *testing.T) {
	m := NewCodeMap()
	m.Line("l1")
	m.Declare(LinePoint, "l2") // declared, never hit
	m.Stmt("s1")
	m.Branch("b1", true)
	if got := m.Percent(LinePoint); got != 50 {
		t.Errorf("line %% = %f", got)
	}
	if got := m.Percent(StmtPoint); got != 100 {
		t.Errorf("stmt %% = %f", got)
	}
	// branch needs both directions.
	if got := m.Percent(BranchPoint); got != 0 {
		t.Errorf("branch %% = %f, want 0 (one-sided)", got)
	}
	m.Branch("b1", false)
	if got := m.Percent(BranchPoint); got != 100 {
		t.Errorf("branch %% = %f", got)
	}
	if holes := m.Holes(LinePoint); len(holes) != 1 || holes[0] != "l2" {
		t.Errorf("holes = %v", holes)
	}
}

func TestCodeMapJustify(t *testing.T) {
	m := NewCodeMap()
	m.Declare(LinePoint, "dead")
	if m.Percent(LinePoint) != 0 {
		t.Fatal("unjustified dead line should not be covered")
	}
	if err := m.Justify("dead"); err != nil {
		t.Fatal(err)
	}
	if m.Percent(LinePoint) != 100 {
		t.Error("justified line should count as covered")
	}
	if err := m.Justify("missing"); err == nil {
		t.Error("justifying unknown point should fail")
	}
}

func TestCodeMapResetKeepsDeclarations(t *testing.T) {
	m := NewCodeMap()
	m.Line("l1")
	m.Branch("b1", true)
	m.ResetHits()
	if m.Percent(LinePoint) != 0 {
		t.Error("reset should clear hits")
	}
	if m.Points(LinePoint) != 1 || m.Points(BranchPoint) != 1 {
		t.Error("reset should keep declarations")
	}
}

func TestCodeMapEmptyIs100(t *testing.T) {
	m := NewCodeMap()
	for _, k := range []PointKind{LinePoint, StmtPoint, BranchPoint} {
		if m.Percent(k) != 100 {
			t.Errorf("%v empty %% = %f", k, m.Percent(k))
		}
	}
}

func TestCodeMapReport(t *testing.T) {
	m := NewCodeMap()
	m.Line("covered")
	m.Declare(BranchPoint, "never")
	r := m.Report()
	for _, want := range []string{"line", "branch", "statement", "never"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
}

func TestPointKindString(t *testing.T) {
	if LinePoint.String() != "line" || BranchPoint.String() != "branch" || StmtPoint.String() != "statement" {
		t.Error("kind strings wrong")
	}
}
