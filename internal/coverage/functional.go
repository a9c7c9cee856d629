// Package coverage implements the two quality metrics the paper's flow is
// gated on:
//
//   - functional coverage — declared items with bins (and crosses of items),
//     sampled by the verification environment, obtainable on BOTH the RTL
//     and the BCA model and required to be identical when the same tests and
//     seeds run on the two views;
//   - code coverage — line, branch and statement coverage, obtained by
//     instrumenting the RTL model only (the paper: "no tool is able to
//     generate this metrics for SystemC"), with support for justifying
//     unreachable points ("100 % of justified code for the line coverage").
package coverage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Bin is one bucket of a coverage item.
type Bin struct {
	Name string
	Hits uint64
}

// Item is a named coverage point with a declared set of bins.
type Item struct {
	Name string
	// bins holds the declared bins in declaration order. It is never grown
	// after declaration, so *Bin handles into it stay valid.
	bins []Bin
	// index maps bin names to positions in items too large to scan; small
	// items — most of them — carry no map at all.
	index map[string]int
}

// scanLimit is the largest item (in bins) or group (in items) whose members
// are looked up by a linear scan instead of through a name index.
const scanLimit = 16

// newItem builds an item with the given declared bins.
func newItem(name string, bins []string) *Item {
	it := &Item{Name: name, bins: make([]Bin, len(bins))}
	for i, b := range bins {
		it.bins[i].Name = b
	}
	if dup, ok := it.seal(); !ok {
		panic(fmt.Sprintf("coverage: duplicate bin %q in item %q", dup, name))
	}
	return it
}

// seal builds the name index of an item whose bins are in place and reports
// the first duplicate bin name, if any.
func (it *Item) seal() (dup string, ok bool) {
	if len(it.bins) <= scanLimit {
		for i := range it.bins {
			for j := 0; j < i; j++ {
				if it.bins[j].Name == it.bins[i].Name {
					return it.bins[i].Name, false
				}
			}
		}
		return "", true
	}
	it.index = make(map[string]int, len(it.bins))
	for i := range it.bins {
		name := it.bins[i].Name
		if _, seen := it.index[name]; seen {
			return name, false
		}
		it.index[name] = i
	}
	return "", true
}

// bin returns the declared bin name, or nil.
func (it *Item) bin(name string) *Bin {
	if it.index != nil {
		if i, ok := it.index[name]; ok {
			return &it.bins[i]
		}
		return nil
	}
	for i := range it.bins {
		if it.bins[i].Name == name {
			return &it.bins[i]
		}
	}
	return nil
}

// Hit samples bin name. Hitting an undeclared bin panics: the coverage model
// is the specification of legal behaviour, so an unexpected value is a
// verification-environment bug the paper says must be caught early.
func (it *Item) Hit(name string) {
	b := it.bin(name)
	if b == nil {
		panic(fmt.Sprintf("coverage: item %q has no bin %q", it.Name, name))
	}
	b.Hits++
}

// HitOK samples bin name if declared and reports whether it was.
func (it *Item) HitOK(name string) bool {
	b := it.bin(name)
	b.Inc()
	return b != nil
}

// Counter returns the declared bin's counter, or nil when the bin is
// undeclared — the preresolved form of HitOK for samplers hot enough that
// per-event name formatting and lookups matter. The pointer stays valid
// for the item's lifetime: Merge, ResetHits-style loops and reports all
// mutate counts in place, never replace the Bin.
func (it *Item) Counter(name string) *Bin { return it.bin(name) }

// Inc samples the bin. Inc on a nil receiver is a no-op, mirroring HitOK's
// tolerance of undeclared bins so callers can hold nil handles for bins a
// configuration never declares.
func (b *Bin) Inc() {
	if b != nil {
		b.Hits++
	}
}

// Hits returns the hit count of bin name (0 if undeclared).
func (it *Item) Hits(name string) uint64 {
	if b := it.bin(name); b != nil {
		return b.Hits
	}
	return 0
}

// Covered returns hit and total bin counts.
func (it *Item) Covered() (hit, total int) {
	for _, b := range it.bins {
		if b.Hits > 0 {
			hit++
		}
	}
	return hit, len(it.bins)
}

// Holes returns the names of unhit bins in declaration order.
func (it *Item) Holes() []string {
	var h []string
	for _, b := range it.bins {
		if b.Hits == 0 {
			h = append(h, b.Name)
		}
	}
	return h
}

// Hole identifies one declared-but-unhit bin of a group: the input of the
// paper's "coverage not full → add tests" arc, in structured form so closure
// tooling consumes the coverage state directly instead of re-parsing report
// text.
type Hole struct {
	Item string `json:"item"`
	Bin  string `json:"bin"`
}

func (h Hole) String() string { return h.Item + "/" + h.Bin }

// Group is a set of coverage items, the unit reported per DUT configuration.
type Group struct {
	Name string
	// items holds the declared items in declaration order.
	items []*Item
	// index maps item names to items once the group is too large to scan.
	index map[string]*Item
}

// NewGroup returns an empty coverage group.
func NewGroup(name string) *Group {
	return &Group{Name: name}
}

// item returns the declared item name, or nil.
func (g *Group) item(name string) *Item {
	if g.index != nil {
		return g.index[name]
	}
	for _, it := range g.items {
		if it.Name == name {
			return it
		}
	}
	return nil
}

// add appends a newly declared item, indexing the group once it outgrows a
// linear scan.
func (g *Group) add(it *Item) {
	g.items = append(g.items, it)
	switch {
	case g.index != nil:
		g.index[it.Name] = it
	case len(g.items) > scanLimit:
		g.index = make(map[string]*Item, len(g.items))
		for _, x := range g.items {
			g.index[x.Name] = x
		}
	}
}

// Item declares (or returns the existing) item with the given bins.
func (g *Group) Item(name string, bins ...string) *Item {
	if it := g.item(name); it != nil {
		return it
	}
	it := newItem(name, bins)
	g.add(it)
	return it
}

// Clone returns a deep copy of the group: the same items and bins with the
// same hits, sharing no counter with g.
func (g *Group) Clone() *Group {
	c := &Group{Name: g.Name}
	for _, it := range g.items {
		// An item's name index maps names to positions and never changes
		// after declaration, so the copy shares it.
		c.add(&Item{Name: it.Name, bins: slices.Clone(it.bins), index: it.index})
	}
	return c
}

// Cross declares an item whose bins are the cartesian product of the bins of
// a and b, named "abin×bbin". Sample it with HitCross.
func (g *Group) Cross(name string, a, b *Item) *Item {
	var bins []string
	for _, ab := range a.bins {
		for _, bb := range b.bins {
			bins = append(bins, ab.Name+"×"+bb.Name)
		}
	}
	return g.Item(name, bins...)
}

// HitCross samples the cross bin for the pair (abin, bbin) on item name.
func (g *Group) HitCross(name, abin, bbin string) {
	g.MustItem(name).Hit(abin + "×" + bbin)
}

// MustItem returns a declared item, panicking if absent.
func (g *Group) MustItem(name string) *Item {
	it := g.item(name)
	if it == nil {
		panic(fmt.Sprintf("coverage: group %q has no item %q", g.Name, name))
	}
	return it
}

// Items returns the items in declaration order.
func (g *Group) Items() []*Item {
	return append([]*Item(nil), g.items...)
}

// Holes returns every unhit bin of the group in declaration order: items in
// the order they were declared, bins in declaration order within each item.
// The ordering is part of the contract — closure planning, reports and their
// golden tests all depend on two identical groups producing byte-identical
// hole lists — so the implementation walks the declaration-order slices, never
// a Go map.
func (g *Group) Holes() []Hole {
	var holes []Hole
	for _, it := range g.items {
		for _, b := range it.bins {
			if b.Hits == 0 {
				holes = append(holes, Hole{Item: it.Name, Bin: b.Name})
			}
		}
	}
	return holes
}

// Covered returns hit and total bin counts over all items.
func (g *Group) Covered() (hit, total int) {
	for _, it := range g.items {
		h, t := it.Covered()
		hit += h
		total += t
	}
	return hit, total
}

// Percent returns the functional coverage percentage (100 for an empty
// group).
func (g *Group) Percent() float64 {
	h, t := g.Covered()
	if t == 0 {
		return 100
	}
	return 100 * float64(h) / float64(t)
}

// Full reports whether every declared bin has been hit.
func (g *Group) Full() bool {
	h, t := g.Covered()
	return h == t
}

// Merge accumulates the hit counts of o (which must declare the same items
// and bins) into g.
func (g *Group) Merge(o *Group) error {
	for _, oit := range o.items {
		it := g.item(oit.Name)
		if it == nil {
			return fmt.Errorf("coverage: merge: item %q missing from %q", oit.Name, g.Name)
		}
		for _, ob := range oit.bins {
			b := it.bin(ob.Name)
			if b == nil {
				return fmt.Errorf("coverage: merge: bin %q missing from item %q", ob.Name, oit.Name)
			}
			b.Hits += ob.Hits
		}
	}
	return nil
}

// EqualHits reports whether g and o declare the same bins with identical hit
// counts — the paper's requirement that functional coverage "must be equal
// running the same tests" on the two views. The first difference found is
// described in detail.
func (g *Group) EqualHits(o *Group) (bool, string) {
	if len(g.items) != len(o.items) {
		return false, fmt.Sprintf("item count %d vs %d", len(g.items), len(o.items))
	}
	for _, it := range g.items {
		name := it.Name
		oit := o.item(name)
		if oit == nil {
			return false, fmt.Sprintf("item %q missing", name)
		}
		if len(it.bins) != len(oit.bins) {
			return false, fmt.Sprintf("item %q bin count %d vs %d", name, len(it.bins), len(oit.bins))
		}
		// Walk bins in declaration order so the reported first difference
		// is deterministic even when several bins disagree.
		for _, b := range it.bins {
			ob := oit.bin(b.Name)
			if ob == nil {
				return false, fmt.Sprintf("item %q bin %q missing", name, b.Name)
			}
			if b.Hits != ob.Hits {
				return false, fmt.Sprintf("item %q bin %q hits %d vs %d", name, b.Name, b.Hits, ob.Hits)
			}
		}
	}
	return true, ""
}

// Report renders the group as the functional-coverage report of a regression
// run.
func (g *Group) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "functional coverage group %q: %.1f%%\n", g.Name, g.Percent())
	for _, it := range g.Items() {
		h, t := it.Covered()
		fmt.Fprintf(&sb, "  item %-28s %3d/%3d bins", it.Name, h, t)
		if holes := it.Holes(); len(holes) > 0 {
			max := holes
			if len(max) > 6 {
				max = max[:6]
			}
			fmt.Fprintf(&sb, "  holes: %s", strings.Join(max, ","))
			if len(holes) > 6 {
				fmt.Fprintf(&sb, ",… (%d)", len(holes))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortedBinDump renders every bin and hit count deterministically, used by
// the coverage-equality experiment to diff the two views textually.
func (g *Group) SortedBinDump() string {
	var lines []string
	for _, it := range g.Items() {
		for _, b := range it.bins {
			lines = append(lines, fmt.Sprintf("%s/%s=%d", it.Name, b.Name, b.Hits))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
