// Package closure is the coverage-closure engine: it turns the regression
// flow into a feedback loop that automates the paper's "coverage not full →
// add tests" arc. After a suite run, the merged functional-coverage state
// names its holes (coverage.Group.Holes); the planner in this file maps each
// hole back to the catg.TrafficConfig/TargetConfig dimensions that can reach
// it and synthesizes biased follow-up work units; the engine (closure.go)
// feeds them through the regress runner pool and result cache until coverage
// is full or a budget runs out.
//
// Everything is deterministic: the plan is a pure function of
// (configuration, hole set, recipe history), unit seeds derive from the base
// seed and the iteration number, and merges happen in canonical order — so
// a closure trajectory is reproducible at any worker count, and the warm
// re-run of a converged closure simulates nothing.
package closure

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Unit is one synthesized follow-up work unit: a test whose stimulus is
// biased toward a set of coverage holes.
type Unit struct {
	Test core.Test
	// Holes lists the holes this unit is aimed at (a unit may close others
	// incidentally; attribution happens at merge time).
	Holes []coverage.Hole
}

// planner carries the per-PlanWith state: the defaulted configuration and
// the dosing feedback that sizes each recipe's operation count.
type planner struct {
	cfg  nodespec.Config
	hist History
}

// Operation-count dosing: every recipe starts at baseOps; each measured
// consecutive zero-yield attempt of that recipe doubles the dose up to
// maxOps.
const (
	baseOps = 40
	maxOps  = 320
)

// SlugStats is the measured outcome history of one planner recipe.
type SlugStats struct {
	// Attempts counts units planned with this slug across all iterations.
	Attempts int
	// Barren counts the consecutive most-recent attempts that closed no
	// bin — the signal that the current dose is not enough.
	Barren int
}

// History maps planner recipe slugs (the part of a synthesized test name
// between "closure/" and "@") to their measured outcomes. It feeds PlanWith
// so later iterations escalate stimulus only where it measurably failed.
type History map[string]SlugStats

// HistoryOf digests a closure trajectory into planner history: every
// recorded unit is attributed to its recipe slug, and a unit that closed at
// least one new bin resets the recipe's barren streak.
func HistoryOf(traj *core.ClosureTrajectory) History {
	h := History{}
	for _, it := range traj.Iterations {
		for _, u := range it.Units {
			slug := unitSlug(u.Test)
			if slug == "" {
				continue
			}
			st := h[slug]
			st.Attempts++
			if u.NewBins == 0 {
				st.Barren++
			} else {
				st.Barren = 0
			}
			h[slug] = st
		}
	}
	return h
}

// unitSlug extracts the recipe slug from a synthesized test name of the form
// "closure/<slug>@<fingerprint>", or "" for foreign names.
func unitSlug(name string) string {
	rest, ok := strings.CutPrefix(name, "closure/")
	if !ok {
		return ""
	}
	slug, _, _ := strings.Cut(rest, "@")
	return slug
}

// opsFor sizes one recipe's operation count from its measured history: the
// base dose, doubled once per consecutive zero-yield attempt, capped. A
// recipe that closed bins last time stays at the base dose — the next
// iteration's fresh seed explores new stimulus at the same cost — while one
// that keeps coming back empty escalates geometrically.
func (p *planner) opsFor(slug string) int {
	barren := p.hist[slug].Barren
	ops := baseOps
	for ; barren > 0 && ops < maxOps; barren-- {
		ops *= 2
	}
	if ops > maxOps {
		ops = maxOps
	}
	return ops
}

// PlanWith maps a hole set to biased follow-up units using measured
// per-recipe coverage deltas (HistoryOf a trajectory in progress; nil before
// the first iteration): stimulus escalates only where prior rounds
// measurably failed to close bins. It is pure and deterministic: the same
// (cfg, holes, hist) always yields the same units in the same order, with
// the same content-hashed names. Holes the planner has no recipe for fall
// into one catch-all union-traffic unit, so no hole is ever silently
// dropped.
//
// The model-shaping traffic fields (Kinds, Sizes, UnmappedPct, ProgPct,
// ChunkPct) are kept uniform across initiators within a unit: the per-run
// coverage model derives from initiator 0's traffic, and a bin a unit is
// chasing must be declared by the unit's own model or its hits are dropped
// before the merge. Per-initiator bias uses only Ops, Targets, IdlePct and
// PriMax, which do not shape the model.
func PlanWith(cfg nodespec.Config, holes []coverage.Hole, hist History) []Unit {
	cfg = cfg.WithDefaults()
	p := &planner{cfg: cfg, hist: hist}

	// Bucket the holes by item; bin order within an item follows the holes
	// slice (declaration order).
	byItem := map[string][]string{}
	for _, h := range holes {
		byItem[h.Item] = append(byItem[h.Item], h.Bin)
	}
	bins := func(item string) []string { return byItem[item] }
	has := func(item, bin string) bool {
		for _, b := range byItem[item] {
			if b == bin {
				return true
			}
		}
		return false
	}

	var units []Unit

	// opcode holes: one unit per operation kind, sizes restricted to exactly
	// the missing ones (the generator draws uniformly, so a narrow
	// constraint closes the bin almost surely in one round).
	if missing := bins("opcode"); len(missing) > 0 {
		units = append(units, p.opcodeUnits(missing)...)
	}

	// req_pkt_len holes: drive the kind/size combinations whose request
	// packets have the missing cell counts.
	if missing := bins("req_pkt_len"); len(missing) > 0 {
		if u, ok := p.pktLenUnit(missing); ok {
			units = append(units, u)
		}
	}

	// route/tgtN and init_x_route holes share one recipe: point each
	// involved initiator's Targets at its missing routes.
	if u, ok := p.routesUnit(bins("route"), bins("init_x_route")); ok {
		units = append(units, u)
	}

	// Error paths: route/unmapped and response/err are both closed by
	// unmapped traffic.
	if has("route", "unmapped") || has("response", "err") {
		units = append(units, p.errorUnit(has("route", "unmapped"), has("response", "err")))
	}
	if has("route", "prog") && cfg.ProgPort {
		units = append(units, p.progUnit())
	}

	// initiator/initN holes: boost the silent initiators, starve the rest.
	if missing := bins("initiator"); len(missing) > 0 {
		if u, ok := p.initiatorUnit(missing); ok {
			units = append(units, u)
		}
	}

	// Plain traffic closes response/ok and chunk/plain.
	if has("response", "ok") || has("chunk", "plain") {
		units = append(units, p.plainUnit(has("response", "ok"), has("chunk", "plain")))
	}
	if has("chunk", "locked") {
		units = append(units, p.chunkUnit())
	}

	if has("contention", "concurrent") {
		units = append(units, p.contentionConcurrentUnit())
	}
	if has("contention", "solo") {
		units = append(units, p.contentionSoloUnit())
	}

	if has("completion_order", "reordered") {
		units = append(units, p.reorderedUnit())
	}
	if has("completion_order", "in_order") {
		units = append(units, p.inOrderUnit())
	}

	if missing := bins("latency"); len(missing) > 0 {
		units = append(units, p.latencyUnits(missing)...)
	}

	// Catch-all for holes in items the planner has no recipe for (a future
	// coverage item, say): heavy union traffic. Without this, an unknown
	// hole would stall the loop silently.
	known := map[string]bool{
		"opcode": true, "req_pkt_len": true, "route": true,
		"init_x_route": true, "response": true, "initiator": true,
		"chunk": true, "contention": true, "completion_order": true,
		"latency": true,
	}
	var unknown []coverage.Hole
	for _, h := range holes {
		if !known[h.Item] {
			unknown = append(unknown, h)
		}
	}
	if len(unknown) > 0 {
		units = append(units, p.fallbackUnit(unknown))
	}
	return units
}

// opcodeBins enumerates every opcode the generator could ever emit for this
// node, keyed by its bin name.
func (p *planner) opcodeTable() map[string]stbus.Opcode {
	table := map[string]stbus.Opcode{}
	for _, k := range []stbus.OpKind{stbus.KindLoad, stbus.KindStore, stbus.KindRMW, stbus.KindSwap} {
		for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
			op := stbus.Op(k, size)
			if op.ValidFor(p.cfg.Port.Type, p.cfg.Port.BusBytes()) {
				table[op.String()] = op
			}
		}
	}
	return table
}

func kindSlug(k stbus.OpKind) string {
	switch k {
	case stbus.KindLoad:
		return "ld"
	case stbus.KindStore:
		return "st"
	case stbus.KindRMW:
		return "rmw"
	case stbus.KindSwap:
		return "swap"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// opcodeUnits emits one unit per operation kind with missing opcode bins,
// constrained to exactly the missing sizes of that kind.
func (p *planner) opcodeUnits(missing []string) []Unit {
	table := p.opcodeTable()
	sizesByKind := map[stbus.OpKind][]int{}
	holesByKind := map[stbus.OpKind][]coverage.Hole{}
	for _, bin := range missing {
		op, ok := table[bin]
		if !ok {
			continue // stale bin name; the fallback is not needed, it cannot be declared either
		}
		k := op.Kind()
		sizesByKind[k] = append(sizesByKind[k], op.SizeBytes())
		holesByKind[k] = append(holesByKind[k], coverage.Hole{Item: "opcode", Bin: bin})
	}
	var units []Unit
	for _, k := range []stbus.OpKind{stbus.KindLoad, stbus.KindStore, stbus.KindRMW, stbus.KindSwap} {
		sizes := sizesByKind[k]
		if len(sizes) == 0 {
			continue
		}
		sort.Ints(sizes)
		tc := catg.TrafficConfig{Ops: p.opsFor("opcode_" + kindSlug(k)), Kinds: []stbus.OpKind{k}, Sizes: sizes}
		units = append(units, p.unit("opcode_"+kindSlug(k), holesByKind[k],
			p.uniform(tc), p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 2, QueueDepth: 8})))
	}
	return units
}

// pktLenUnit drives the kind/size combinations whose request packets carry
// the missing cell counts.
func (p *planner) pktLenUnit(missing []string) (Unit, bool) {
	want := map[int]bool{}
	var hs []coverage.Hole
	for _, bin := range missing {
		n, err := strconv.Atoi(strings.TrimSuffix(bin, "cell"))
		if err != nil {
			continue
		}
		want[n] = true
		hs = append(hs, coverage.Hole{Item: "req_pkt_len", Bin: bin})
	}
	var kinds []stbus.OpKind
	var sizes []int
	seenKind := map[stbus.OpKind]bool{}
	seenSize := map[int]bool{}
	for _, k := range []stbus.OpKind{stbus.KindLoad, stbus.KindStore, stbus.KindRMW, stbus.KindSwap} {
		for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
			op := stbus.Op(k, size)
			if !op.ValidFor(p.cfg.Port.Type, p.cfg.Port.BusBytes()) {
				continue
			}
			if !want[stbus.ReqLen(p.cfg.Port.Type, op, p.cfg.Port.BusBytes())] {
				continue
			}
			if !seenKind[k] {
				seenKind[k] = true
				kinds = append(kinds, k)
			}
			if !seenSize[size] {
				seenSize[size] = true
				sizes = append(sizes, size)
			}
		}
	}
	if len(kinds) == 0 || len(hs) == 0 {
		return Unit{}, false
	}
	sort.Ints(sizes)
	tc := catg.TrafficConfig{Ops: p.opsFor("pkt_len"), Kinds: kinds, Sizes: sizes}
	return p.unit("pkt_len", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 2, QueueDepth: 8})), true
}

// routesUnit aims each involved initiator's Targets at its missing routes,
// covering both route/tgtN and init_x_route/initI×tgtT holes in one unit.
func (p *planner) routesUnit(routeBins, crossBins []string) (Unit, bool) {
	perInit := make(map[int]map[int]bool)
	addPair := func(i, t int) {
		if i < 0 || i >= p.cfg.NumInit || t < 0 || t >= p.cfg.NumTgt || !p.cfg.Connected(i, t) {
			return
		}
		if perInit[i] == nil {
			perInit[i] = map[int]bool{}
		}
		perInit[i][t] = true
	}
	var hs []coverage.Hole
	for _, bin := range routeBins {
		t, err := strconv.Atoi(strings.TrimPrefix(bin, "tgt"))
		if err != nil {
			continue // unmapped/prog handled elsewhere
		}
		for i := 0; i < p.cfg.NumInit; i++ {
			addPair(i, t)
		}
		hs = append(hs, coverage.Hole{Item: "route", Bin: bin})
	}
	for _, bin := range crossBins {
		parts := strings.SplitN(bin, "×", 2)
		if len(parts) != 2 {
			continue
		}
		i, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "init"))
		t, err2 := strconv.Atoi(strings.TrimPrefix(parts[1], "tgt"))
		if err1 != nil || err2 != nil {
			continue
		}
		addPair(i, t)
		hs = append(hs, coverage.Hole{Item: "init_x_route", Bin: bin})
	}
	if len(perInit) == 0 {
		return Unit{}, false
	}
	traffic := make([]catg.TrafficConfig, p.cfg.NumInit)
	for i := range traffic {
		tc := catg.TrafficConfig{Ops: p.opsFor("routes"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4, 8}}
		if missing := perInit[i]; len(missing) > 0 {
			var ts []int
			for t := range missing {
				ts = append(ts, t)
			}
			sort.Ints(ts)
			tc.Targets = ts
		} else {
			tc.Ops = 5
			tc.IdlePct = 50
		}
		traffic[i] = tc
	}
	return p.unit("routes", hs, traffic,
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 3})), true
}

func (p *planner) errorUnit(routeHole, respHole bool) Unit {
	var hs []coverage.Hole
	if routeHole {
		hs = append(hs, coverage.Hole{Item: "route", Bin: "unmapped"})
	}
	if respHole {
		hs = append(hs, coverage.Hole{Item: "response", Bin: "err"})
	}
	tc := catg.TrafficConfig{Ops: p.opsFor("error_paths"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4}, UnmappedPct: 60}
	return p.unit("error_paths", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 3}))
}

func (p *planner) progUnit() Unit {
	hs := []coverage.Hole{{Item: "route", Bin: "prog"}}
	tc := catg.TrafficConfig{Ops: p.opsFor("prog"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4}, ProgPct: 50}
	return p.unit("prog", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 3}))
}

// initiatorUnit boosts the initiators whose initN bins are unhit and starves
// the rest, so the silent ports get bus time even under contention.
func (p *planner) initiatorUnit(missing []string) (Unit, bool) {
	want := map[int]bool{}
	var hs []coverage.Hole
	for _, bin := range missing {
		i, err := strconv.Atoi(strings.TrimPrefix(bin, "init"))
		if err != nil || i < 0 || i >= p.cfg.NumInit {
			continue
		}
		want[i] = true
		hs = append(hs, coverage.Hole{Item: "initiator", Bin: bin})
	}
	if len(want) == 0 {
		return Unit{}, false
	}
	traffic := make([]catg.TrafficConfig, p.cfg.NumInit)
	for i := range traffic {
		tc := catg.TrafficConfig{Ops: p.opsFor("initiators"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4}}
		if !want[i] {
			tc.Ops = 4
			tc.IdlePct = 60
		}
		traffic[i] = tc
	}
	return p.unit("initiators", hs, traffic,
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 2, QueueDepth: 8})), true
}

func (p *planner) plainUnit(respOK, chunkPlain bool) Unit {
	var hs []coverage.Hole
	if respOK {
		hs = append(hs, coverage.Hole{Item: "response", Bin: "ok"})
	}
	if chunkPlain {
		hs = append(hs, coverage.Hole{Item: "chunk", Bin: "plain"})
	}
	tc := catg.TrafficConfig{Ops: p.opsFor("plain"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{1, 4, 8}}
	if chunkPlain {
		// The chunk item is declared only when ChunkPct > 0; a trace of
		// chunked traffic keeps the bin declared while most operations stay
		// plain.
		tc.ChunkPct = 1
	}
	return p.unit("plain", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 2}))
}

func (p *planner) chunkUnit() Unit {
	hs := []coverage.Hole{{Item: "chunk", Bin: "locked"}}
	tc := catg.TrafficConfig{Ops: p.opsFor("chunk"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4, 8}, ChunkPct: 65}
	return p.unit("chunk", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 3}))
}

// contentionConcurrentUnit makes every initiator request continuously into
// slow-ish targets, so the arbiter sees overlapping requests.
func (p *planner) contentionConcurrentUnit() Unit {
	hs := []coverage.Hole{{Item: "contention", Bin: "concurrent"}}
	tc := catg.TrafficConfig{Ops: p.opsFor("contention_concurrent"), Kinds: []stbus.OpKind{stbus.KindLoad, stbus.KindStore}, Sizes: []int{4}, PriMax: 15}
	return p.unit("contention_concurrent", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 2, MaxLatency: 5, QueueDepth: 2}))
}

// contentionSoloUnit gives initiator 0 a long solo tail: everyone else
// issues a handful of operations and goes quiet.
func (p *planner) contentionSoloUnit() Unit {
	hs := []coverage.Hole{{Item: "contention", Bin: "solo"}}
	traffic := make([]catg.TrafficConfig, p.cfg.NumInit)
	for i := range traffic {
		tc := catg.TrafficConfig{Ops: p.opsFor("contention_solo"), Kinds: []stbus.OpKind{stbus.KindLoad}, Sizes: []int{4}, IdlePct: 40}
		if i != 0 {
			tc.Ops = 3
			tc.IdlePct = 0
		}
		traffic[i] = tc
	}
	return p.unit("contention_solo", hs, traffic,
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 1, QueueDepth: 8}))
}

// reorderedUnit reproduces the paper's out-of-order forcing recipe: short
// loads from one initiator to targets of very different speed.
func (p *planner) reorderedUnit() Unit {
	hs := []coverage.Hole{{Item: "completion_order", Bin: "reordered"}}
	tc := catg.TrafficConfig{Ops: p.opsFor("ooo_reordered"), Kinds: []stbus.OpKind{stbus.KindLoad}, Sizes: []int{4}}
	targets := make([]catg.TargetConfig, p.cfg.NumTgt)
	for t := range targets {
		if t%2 == 0 {
			targets[t] = catg.TargetConfig{MinLatency: 22, MaxLatency: 28}
		} else {
			targets[t] = catg.TargetConfig{MinLatency: 0, MaxLatency: 1}
		}
	}
	return p.unit("ooo_reordered", hs, p.uniform(tc), targets)
}

func (p *planner) inOrderUnit() Unit {
	hs := []coverage.Hole{{Item: "completion_order", Bin: "in_order"}}
	tc := catg.TrafficConfig{Ops: p.opsFor("ooo_in_order"), Kinds: []stbus.OpKind{stbus.KindLoad}, Sizes: []int{4}, IdlePct: 60}
	return p.unit("ooo_in_order", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 1, MaxLatency: 1}))
}

// latencyUnits emits one unit per missing latency band; each band needs its
// own target timing.
func (p *planner) latencyUnits(missing []string) []Unit {
	recipes := []struct {
		bin    string
		target catg.TargetConfig
		idle   int
	}{
		// Hitting a band from below needs an idle bus (no queueing on top of
		// the target latency); from above, the target latency dominates.
		{"lt5", catg.TargetConfig{MinLatency: 0, MaxLatency: 1, QueueDepth: 8}, 60},
		{"lt10", catg.TargetConfig{MinLatency: 4, MaxLatency: 6, QueueDepth: 8}, 50},
		{"lt20", catg.TargetConfig{MinLatency: 12, MaxLatency: 15, QueueDepth: 8}, 40},
		{"ge20", catg.TargetConfig{MinLatency: 24, MaxLatency: 30}, 0},
	}
	var units []Unit
	for _, r := range recipes {
		found := false
		for _, bin := range missing {
			if bin == r.bin {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		hs := []coverage.Hole{{Item: "latency", Bin: r.bin}}
		tc := catg.TrafficConfig{Ops: p.opsFor("lat_" + r.bin), Kinds: []stbus.OpKind{stbus.KindLoad}, Sizes: []int{4}, IdlePct: r.idle}
		units = append(units, p.unit("lat_"+r.bin, hs, p.uniform(tc), p.targets(r.target)))
	}
	return units
}

// fallbackUnit is the catch-all for holes the planner has no recipe for:
// heavy union traffic across every stimulus class.
func (p *planner) fallbackUnit(hs []coverage.Hole) Unit {
	tc := catg.UnionTraffic(p.cfg)
	tc.Ops = p.opsFor("union")
	tc.UnmappedPct = 10
	tc.ChunkPct = 15
	tc.IdlePct = 20
	if p.cfg.ProgPort {
		tc.ProgPct = 10
	}
	return p.unit("union", hs, p.uniform(tc),
		p.targets(catg.TargetConfig{MinLatency: 0, MaxLatency: 6, GntGapPct: 15}))
}

// uniform replicates one traffic configuration across every initiator.
func (p *planner) uniform(tc catg.TrafficConfig) []catg.TrafficConfig {
	out := make([]catg.TrafficConfig, p.cfg.NumInit)
	for i := range out {
		out[i] = tc
	}
	return out
}

// targets replicates one target configuration across every target.
func (p *planner) targets(tc catg.TargetConfig) []catg.TargetConfig {
	out := make([]catg.TargetConfig, p.cfg.NumTgt)
	for t := range out {
		out[t] = tc
	}
	return out
}

// unit materialises a planned unit as a core.Test. The name embeds a content
// hash of the complete per-initiator traffic and per-target timing, so the
// content-addressed result cache (which keys units by test name) can never
// confuse two different syntheses — including the same hole class planned at
// different iterations with different operation counts.
func (p *planner) unit(slug string, hs []coverage.Hole, traffic []catg.TrafficConfig, targets []catg.TargetConfig) Unit {
	name := fmt.Sprintf("closure/%s@%s", slug, fingerprint(traffic, targets))
	return Unit{
		Test: core.Test{
			Name: name,
			TrafficFor: func(_ nodespec.Config, i int) catg.TrafficConfig {
				if i < 0 || i >= len(traffic) {
					return traffic[0]
				}
				return traffic[i]
			},
			TargetFor: func(_ nodespec.Config, t int) catg.TargetConfig {
				if t < 0 || t >= len(targets) {
					return targets[0]
				}
				return targets[t]
			},
		},
		Holes: hs,
	}
}

// fingerprint hashes the full stimulus description of a unit.
func fingerprint(traffic []catg.TrafficConfig, targets []catg.TargetConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v", traffic, targets)
	return fmt.Sprintf("%016x", h.Sum64())
}
