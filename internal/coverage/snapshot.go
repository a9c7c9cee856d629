package coverage

import (
	"encoding/json"

	"crve/internal/wire"
)

// This file gives both coverage structures two serialized forms. The JSON
// form is what the service's coverage endpoint renders. The binary form is
// what the regression result cache (internal/regress) persists per run and
// rebuilds bit-for-bit: declaration order, bin hit counts, branch miss
// counts and justifications all round-trip, which is what keeps a
// cache-served run indistinguishable from a fresh simulation in every report.

type binJSON struct {
	Name string `json:"name"`
	Hits uint64 `json:"hits"`
}

type itemJSON struct {
	Name string    `json:"name"`
	Bins []binJSON `json:"bins"`
}

type groupJSON struct {
	Name  string     `json:"name"`
	Items []itemJSON `json:"items"`
}

// MarshalJSON renders the group with items and bins in declaration order.
func (g *Group) MarshalJSON() ([]byte, error) {
	gj := groupJSON{Name: g.Name, Items: make([]itemJSON, 0, len(g.items))}
	for _, it := range g.Items() {
		ij := itemJSON{Name: it.Name, Bins: make([]binJSON, 0, len(it.bins))}
		for _, b := range it.bins {
			ij.Bins = append(ij.Bins, binJSON{Name: b.Name, Hits: b.Hits})
		}
		gj.Items = append(gj.Items, ij)
	}
	return json.Marshal(gj)
}

type pointJSON struct {
	Name      string    `json:"name"`
	Kind      PointKind `json:"kind"`
	Hits      uint64    `json:"hits"`
	MissHits  uint64    `json:"miss_hits,omitempty"`
	Justified bool      `json:"justified,omitempty"`
}

// MarshalJSON renders the instrumentation map in declaration order.
func (m *CodeMap) MarshalJSON() ([]byte, error) {
	pts := make([]pointJSON, 0, len(m.order))
	for _, name := range m.order {
		p := m.points[name]
		pts = append(pts, pointJSON{
			Name: name, Kind: p.kind,
			Hits: p.hits, MissHits: p.missHits, Justified: p.justified,
		})
	}
	return json.Marshal(pts)
}

// Encode appends the group's binary form to e: the name, then each item in
// declaration order with its bins and hit counts.
func (g *Group) Encode(e *wire.Encoder) {
	e.Str(g.Name)
	e.Uint(uint64(len(g.items)))
	for _, it := range g.items {
		e.Str(it.Name)
		e.Uint(uint64(len(it.bins)))
		for _, b := range it.bins {
			e.Str(b.Name)
			e.Uint(b.Hits)
		}
	}
}

// DecodeGroup reads a group written by Encode, preserving declaration order
// and hits. A duplicate item or bin name fails the decoder; the result is
// meaningful only when d.Err() is nil.
func DecodeGroup(d *wire.Decoder) *Group {
	g := NewGroup(d.Str())
	n := d.Count(2) // name length + bin count
	g.items = make([]*Item, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		it := &Item{Name: d.Str()}
		it.bins = make([]Bin, d.Count(2)) // name length + hits
		for j := range it.bins {
			it.bins[j] = Bin{Name: d.Str(), Hits: d.Uint()}
		}
		if dup, ok := it.seal(); !ok {
			d.Fail("coverage: duplicate bin %q in item %q", dup, it.Name)
		}
		if g.item(it.Name) != nil {
			d.Fail("coverage: duplicate item %q in group %q", it.Name, g.Name)
		}
		g.add(it)
	}
	return g
}

// Encode appends the map's binary form to e: each point in declaration
// order with its kind, both counters and its justification.
func (m *CodeMap) Encode(e *wire.Encoder) {
	e.Uint(uint64(len(m.order)))
	for _, name := range m.order {
		p := m.points[name]
		e.Str(name)
		e.Uint(uint64(p.kind))
		e.Uint(p.hits)
		e.Uint(p.missHits)
		e.Bool(p.justified)
	}
}

// DecodeCodeMap reads a map written by Encode, preserving declaration order,
// counts and justifications. An unknown point kind or a duplicate point name
// fails the decoder; the result is meaningful only when d.Err() is nil.
func DecodeCodeMap(d *wire.Decoder) *CodeMap {
	n := d.Count(5) // name length, kind, hits, miss hits, justified
	m := &CodeMap{points: make(map[string]*codePoint, n), order: make([]string, 0, n)}
	slab := make([]codePoint, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		p := &slab[i]
		name, kind := d.Str(), PointKind(d.Uint())
		p.kind, p.hits, p.missHits, p.justified = kind, d.Uint(), d.Uint(), d.Bool()
		switch kind {
		case LinePoint, StmtPoint, BranchPoint:
		default:
			d.Fail("coverage: unknown point kind %d for %q", uint64(kind), name)
		}
		if _, dup := m.points[name]; dup {
			d.Fail("coverage: duplicate point %q", name)
		}
		m.points[name] = p
		m.order = append(m.order, name)
	}
	return m
}
