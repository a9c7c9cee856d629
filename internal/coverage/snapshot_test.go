package coverage

import (
	"testing"

	"crve/internal/wire"
)

// roundTrip encodes with enc and decodes the bytes with dec, failing on any
// decoder error or trailing byte.
func roundTrip[T any](t *testing.T, enc func(*wire.Encoder), dec func(*wire.Decoder) T) T {
	t.Helper()
	var e wire.Encoder
	enc(&e)
	d := wire.NewDecoder(e.Bytes())
	back := dec(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return back
}

func TestGroupBinaryRoundTrip(t *testing.T) {
	g := NewGroup("node")
	kind := g.Item("kind", "load", "store", "rmw")
	size := g.Item("size", "1", "4")
	cross(g, "kind×size", kind, size)
	g.Item("empty")
	kind.Hit("load")
	kind.Hit("load")
	kind.Hit("store")
	size.Hit("4")
	g.MustItem("kind×size").Hit("load×4")

	back := roundTrip(t, g.Encode, DecodeGroup)
	if eq, diff := g.EqualHits(back); !eq {
		t.Fatalf("round trip changed hits: %s", diff)
	}
	if sortedBinDump(back) != sortedBinDump(g) {
		t.Errorf("bin dump changed:\n%s\nvs\n%s", sortedBinDump(g), sortedBinDump(back))
	}
	// Declaration order (reports) must survive, not just the set of bins.
	if back.Report() != g.Report() {
		t.Errorf("report changed:\n%s\nvs\n%s", g.Report(), back.Report())
	}
	// The restored group must accept merges from the original's items, and
	// its preresolved counters must be the bins the reports read.
	if err := back.Merge(g); err != nil {
		t.Errorf("merge into restored group: %v", err)
	}
	back.MustItem("size").Counter("1").Inc()
	if got := back.MustItem("size").Hits("1"); got != 1 {
		t.Errorf("restored counter hit %d, want 1", got)
	}
}

func TestCodeMapBinaryRoundTrip(t *testing.T) {
	m := NewCodeMap()
	m.Line("arb.go:10")
	m.Line("arb.go:11")
	m.Point(StmtPoint, "arb.go:11#s0").Hit()
	m.Branch("arb.go:12?", true)
	m.Branch("arb.go:13?", true)
	m.Branch("arb.go:13?", false)
	m.Declare(LinePoint, "dead.go:1")
	if err := m.Justify("dead.go:1"); err != nil {
		t.Fatal(err)
	}

	back := roundTrip(t, m.Encode, DecodeCodeMap)
	if back.Report() != m.Report() {
		t.Errorf("report changed:\n%s\nvs\n%s", m.Report(), back.Report())
	}
	for _, k := range []PointKind{LinePoint, StmtPoint, BranchPoint} {
		if back.Percent(k) != m.Percent(k) {
			t.Errorf("%v percent %.1f vs %.1f", k, m.Percent(k), back.Percent(k))
		}
	}
	// A half-taken branch must still be a hole after the round trip.
	if holes := back.Holes(BranchPoint); len(holes) != 1 || holes[0] != "arb.go:12?" {
		t.Errorf("branch holes %v", holes)
	}
}

func TestCodeMapBinaryRejectsUnknownKind(t *testing.T) {
	var e wire.Encoder
	e.Uint(1)
	e.Str("x")
	e.Uint(9) // no such PointKind
	e.Uint(0)
	e.Uint(0)
	e.Bool(false)
	d := wire.NewDecoder(e.Bytes())
	DecodeCodeMap(d)
	if d.Finish() == nil {
		t.Error("unknown point kind must fail to decode")
	}
}

// TestBinaryRejectsDuplicateNames: a crafted record that declares a name
// twice must fail the decoder — never panic (newItem does on a duplicate
// bin) and never silently merge, which would re-encode to other bytes.
func TestBinaryRejectsDuplicateNames(t *testing.T) {
	group := func(items ...[]string) []byte {
		var e wire.Encoder
		e.Str("g")
		e.Uint(uint64(len(items)))
		for _, it := range items {
			e.Str(it[0])
			e.Uint(uint64(len(it) - 1))
			for _, bn := range it[1:] {
				e.Str(bn)
				e.Uint(1)
			}
		}
		return e.Bytes()
	}
	var points wire.Encoder
	points.Uint(2)
	for i := 0; i < 2; i++ {
		points.Str("p")
		points.Uint(uint64(LinePoint))
		points.Uint(1)
		points.Uint(0)
		points.Bool(false)
	}
	for name, c := range map[string]struct {
		data []byte
		dec  func(*wire.Decoder)
	}{
		"bin":   {group([]string{"a", "x", "x"}), func(d *wire.Decoder) { DecodeGroup(d) }},
		"item":  {group([]string{"a", "x"}, []string{"a", "y"}), func(d *wire.Decoder) { DecodeGroup(d) }},
		"point": {points.Bytes(), func(d *wire.Decoder) { DecodeCodeMap(d) }},
	} {
		d := wire.NewDecoder(c.data)
		c.dec(d)
		if d.Finish() == nil {
			t.Errorf("duplicate %s must fail to decode", name)
		}
	}
}
