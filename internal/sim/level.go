// Static levelization of the combinational process graph.
//
// The graph has one node per combinational process and an edge P→Q whenever
// P drives a signal Q is sensitive to (sensitivity = inputs, driven signals
// = outputs). The graph is condensed into strongly connected components
// with Tarjan's algorithm, and the condensation — a DAG by construction —
// is ranked by longest path from the sources. settle() then evaluates the
// units in topological order: acyclic logic settles in a single ordered
// sweep, one delta regardless of combinational depth, while the bounded
// iterate-to-fixpoint loop survives only *inside* cyclic components (e.g.
// cross-coupled arbitration grant trees). Determinism is preserved: the
// unit order is a pure function of the registered processes (ties within a
// rank break by registration order), and members of a cyclic component
// evaluate in registration order each iteration.

package sim

import (
	"fmt"
	"sort"
)

// buildLevels computes the SCC condensation and rank order of the
// combinational process graph from the declared outputs. Called at the
// Step-time elaboration freeze, before the time-zero settle.
func (sm *Simulator) buildLevels() {
	n := len(sm.combs)
	for i, p := range sm.combs {
		p.id = i
	}
	// Adjacency: p -> q when p drives a signal q is sensitive to.
	adj := make([][]int, n)
	for i, p := range sm.combs {
		for _, s := range p.outs {
			for _, q := range s.sensitive {
				adj[i] = append(adj[i], q.id)
			}
		}
	}

	comp, comps := tarjanSCC(n, adj)

	// Tarjan emits a component only after every component reachable from it,
	// so reversing the emission order yields a topological order (sources
	// first). Rank by longest path over the condensation in that order.
	nc := len(comps)
	rank := make([]int, nc)
	cyclic := make([]bool, nc)
	for ci := range comps {
		if len(comps[ci]) > 1 {
			cyclic[ci] = true
		}
	}
	for ti := nc - 1; ti >= 0; ti-- {
		ci := ti
		for _, v := range comps[ci] {
			for _, w := range adj[v] {
				cw := comp[w]
				if cw == ci {
					cyclic[ci] = true // self-loop or intra-component edge
					continue
				}
				if rank[ci]+1 > rank[cw] {
					rank[cw] = rank[ci] + 1
				}
			}
		}
	}
	// Iterate components in reverse emission order (topological), which the
	// sort below only refines within equal ranks.
	units := make([]*sccUnit, 0, nc)
	sm.maxRank = 0
	for ti := nc - 1; ti >= 0; ti-- {
		members := comps[ti]
		sort.Ints(members)
		u := &sccUnit{rank: rank[ti], cyclic: cyclic[ti]}
		for _, v := range members {
			u.procs = append(u.procs, sm.combs[v])
		}
		units = append(units, u)
		if rank[ti] > sm.maxRank {
			sm.maxRank = rank[ti]
		}
	}
	// Deterministic schedule: by rank, then by first (registration-order)
	// member. Edges only go from lower to strictly higher ranks, so sorting
	// by rank preserves topological order.
	sort.SliceStable(units, func(a, b int) bool {
		if units[a].rank != units[b].rank {
			return units[a].rank < units[b].rank
		}
		return units[a].procs[0].id < units[b].procs[0].id
	})
	// Count the processes woken before the freeze (every process registered
	// since the last one) into their units.
	sm.totalQueued = 0
	for ui, u := range units {
		for _, p := range u.procs {
			p.unit = ui
			p.rank = u.rank
			p.cyclic = u.cyclic
			if p.inQ {
				u.queued++
				sm.totalQueued++
			}
		}
	}
	sm.units = units
}

// tarjanSCC runs an iterative Tarjan over n nodes with adjacency adj,
// returning the component index of every node and the member lists in
// emission order (reverse topological).
func tarjanSCC(n int, adj [][]int) (comp []int, comps [][]int) {
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n) // 0 = unvisited, else discovery index + 1
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	next := 0

	type frame struct{ v, ei int }
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		next++
		index[root], low[root] = next, next
		stack = append(stack, root)
		onStack[root] = true
		frames = append(frames[:0], frame{root, 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == 0 {
					next++
					index[w], low[w] = next, next
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if pv := frames[len(frames)-1].v; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(comps)
					members = append(members, w)
					if w == v {
						break
					}
				}
				comps = append(comps, members)
			}
		}
	}
	return comp, comps
}

// settleLevelized settles one cycle with the levelized schedule: commit the
// sequential phase's writes, then sweep the SCC units in topological order.
// An acyclic unit evaluates exactly once; a cyclic unit iterates its members
// (registration order) to a local fixed point, bounded by MaxDeltas. A
// write that feeds an already-swept rank — possible only when a process
// drives a signal it did not declare — leaves its reader woken, and the
// sweep repeats as a mop-up pass, preserving correctness at the price of
// extra deltas.
func (sm *Simulator) settleLevelized() error {
	sm.commit()
	deltas := uint64(1)
	for pass := 0; ; pass++ {
		if pass > sm.MaxDeltas {
			sm.DeltaCount += deltas
			return fmt.Errorf("%w after %d mop-up passes at cycle %d", ErrOscillation, pass, sm.cycle)
		}
		for _, u := range sm.units {
			if u.queued == 0 {
				continue
			}
			if !u.cyclic {
				p := u.procs[0]
				p.inQ = false
				u.queued--
				sm.totalQueued--
				sm.eval(p)
				sm.commit()
				continue
			}
			for iter := 0; u.queued > 0; iter++ {
				if iter > sm.MaxDeltas {
					sm.DeltaCount += deltas
					return fmt.Errorf("%w after %d deltas in cyclic component %q at cycle %d",
						ErrOscillation, iter, u.procs[0].name, sm.cycle)
				}
				for _, p := range u.procs {
					if p.inQ {
						p.inQ = false
						u.queued--
						sm.totalQueued--
						sm.eval(p)
					}
				}
				sm.commit()
				if iter > 0 {
					deltas++
				}
			}
		}
		if sm.totalQueued == 0 {
			break
		}
		deltas++ // mop-up pass for an undeclared back-edge
	}
	sm.DeltaCount += deltas
	return nil
}
