package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// timeBase anchors the monotonic clock the sampled-timing profile reads.
var timeBase = time.Now()

// nowNS returns monotonic nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(timeBase)) }

// settleHistBuckets sizes the settle-depth histogram: bucket i counts
// settles that took i deltas, with the last bucket absorbing deeper ones.
const settleHistBuckets = 17

// ProcStat is the profile of one process: how often the kernel evaluated it,
// and where levelization placed it.
type ProcStat struct {
	Name  string `json:"name"`
	Seq   bool   `json:"seq,omitempty"`
	Evals uint64 `json:"evals"`
	// Rank is the levelized rank of the process's SCC (-1 for sequential
	// processes and when levelization is off).
	Rank   int  `json:"rank"`
	Cyclic bool `json:"cyclic,omitempty"`
	// TimeNS is the extrapolated evaluation wall time (1-in-8 sampling,
	// scaled), collected when the simulator's Timing flag is set.
	TimeNS int64 `json:"time_ns,omitempty"`
}

// SCCStat describes one cyclic strongly connected component of the process
// graph — the part of the design where the kernel still iterates to a fixed
// point.
type SCCStat struct {
	Rank  int      `json:"rank"`
	Size  int      `json:"size"`
	Procs []string `json:"procs"`
}

// KernelStats is the kernel profiling surface: per-process evaluation
// counts, the settle-depth histogram, and the SCC inventory of the levelized
// schedule. Collected by (*Simulator).Stats.
type KernelStats struct {
	Cycles    uint64 `json:"cycles"`
	Deltas    uint64 `json:"deltas"`
	Settles   uint64 `json:"settles"`
	Levelized bool   `json:"levelized"`
	// CompiledEvals counted evaluations of the retired compiled backend; it
	// is always 0.
	//
	// Deprecated: kept only for perfledger's kernel probe; read ClosureEvals.
	CompiledEvals uint64 `json:"compiled_evals,omitempty"`
	// ClosureEvals counts every process evaluation.
	ClosureEvals uint64 `json:"closure_evals,omitempty"`
	// Ranks is the number of topological ranks (0 when levelization is off).
	Ranks int `json:"ranks,omitempty"`
	// Units counts SCC scheduling units; CyclicSCCs inventories the cyclic
	// ones (empty for a fully acyclic design).
	Units      int       `json:"units,omitempty"`
	CyclicSCCs []SCCStat `json:"cyclic_sccs,omitempty"`
	// SettleDepth is the settle-depth histogram: SettleDepth[i] settles took
	// i deltas (last bucket: that many or more).
	SettleDepth []uint64   `json:"settle_depth,omitempty"`
	Procs       []ProcStat `json:"procs,omitempty"`
}

// Stats snapshots the kernel profile: combinational processes first (in
// registration order), then sequential ones.
func (sm *Simulator) Stats() *KernelStats {
	ks := &KernelStats{
		Cycles:       sm.cycle,
		Deltas:       sm.DeltaCount,
		Settles:      sm.settles,
		Levelized:    sm.units != nil,
		ClosureEvals: sm.evals,
	}
	if sm.units != nil {
		ks.Ranks = sm.maxRank + 1
		ks.Units = len(sm.units)
		for _, u := range sm.units {
			if !u.cyclic {
				continue
			}
			sc := SCCStat{Rank: u.rank, Size: len(u.procs)}
			for _, p := range u.procs {
				sc.Procs = append(sc.Procs, p.name)
			}
			ks.CyclicSCCs = append(ks.CyclicSCCs, sc)
		}
	}
	hist := sm.settleHist
	last := -1
	for i, v := range hist {
		if v != 0 {
			last = i
		}
	}
	if last >= 0 {
		ks.SettleDepth = append([]uint64(nil), hist[:last+1]...)
	}
	for _, p := range sm.combs {
		st := ProcStat{Name: p.name, Evals: p.evals, Rank: -1, TimeNS: p.sampleNS * 8}
		if sm.units != nil {
			st.Rank, st.Cyclic = p.rank, p.cyclic
		}
		ks.Procs = append(ks.Procs, st)
	}
	for _, p := range sm.seqs {
		ks.Procs = append(ks.Procs, ProcStat{Name: p.name, Seq: true, Evals: p.evals, Rank: -1, TimeNS: p.sampleNS * 8})
	}
	return ks
}

// DeltasPerCycle returns the headline convergence metric.
func (ks *KernelStats) DeltasPerCycle() float64 {
	if ks.Cycles == 0 {
		return 0
	}
	return float64(ks.Deltas) / float64(ks.Cycles)
}

// TopProcs returns the n hottest processes. When the profile carries sampled
// wall time (the simulator ran with Timing set) processes rank by time —
// where the cycles go should be measured, not guessed — otherwise by
// evaluation count. Ties break by evals, then name.
func (ks *KernelStats) TopProcs(n int) []ProcStat {
	procs := append([]ProcStat(nil), ks.Procs...)
	timed := false
	for _, p := range procs {
		if p.TimeNS > 0 {
			timed = true
			break
		}
	}
	sort.Slice(procs, func(a, b int) bool {
		if timed && procs[a].TimeNS != procs[b].TimeNS {
			return procs[a].TimeNS > procs[b].TimeNS
		}
		if procs[a].Evals != procs[b].Evals {
			return procs[a].Evals > procs[b].Evals
		}
		return procs[a].Name < procs[b].Name
	})
	if n > 0 && len(procs) > n {
		procs = procs[:n]
	}
	return procs
}

// Merge folds another profile into ks (same design, more runs): counters
// add, schedule shape fields keep the receiver's (or adopt o's when the
// receiver has none).
func (ks *KernelStats) Merge(o *KernelStats) {
	if o == nil {
		return
	}
	ks.Cycles += o.Cycles
	ks.Deltas += o.Deltas
	ks.Settles += o.Settles
	ks.ClosureEvals += o.ClosureEvals
	if len(ks.Procs) == 0 {
		ks.Levelized = o.Levelized
		ks.Ranks, ks.Units = o.Ranks, o.Units
		ks.CyclicSCCs = o.CyclicSCCs
	}
	for len(ks.SettleDepth) < len(o.SettleDepth) {
		ks.SettleDepth = append(ks.SettleDepth, 0)
	}
	for i, v := range o.SettleDepth {
		ks.SettleDepth[i] += v
	}
	byName := make(map[string]int, len(ks.Procs))
	for i := range ks.Procs {
		byName[ks.Procs[i].Name] = i
	}
	for _, p := range o.Procs {
		if i, ok := byName[p.Name]; ok {
			ks.Procs[i].Evals += p.Evals
			ks.Procs[i].TimeNS += p.TimeNS
		} else {
			ks.Procs = append(ks.Procs, p)
		}
	}
}

// Text renders the profile for humans: the summary line, the settle-depth
// histogram, the cyclic-SCC inventory and the top-N processes by
// evaluations.
func (ks *KernelStats) Text(w io.Writer, topN int) {
	mode := "delta-loop"
	if ks.Levelized {
		mode = fmt.Sprintf("levelized (%d ranks, %d units, %d cyclic)", ks.Ranks, ks.Units, len(ks.CyclicSCCs))
	}
	fmt.Fprintf(w, "kernel: %d cycles, %d deltas (%.3f deltas/cycle), %d settles, %s\n",
		ks.Cycles, ks.Deltas, ks.DeltasPerCycle(), ks.Settles, mode)
	if len(ks.SettleDepth) > 0 {
		fmt.Fprintf(w, "settle depth:")
		for i, v := range ks.SettleDepth {
			if v == 0 {
				continue
			}
			suffix := ""
			if i == settleHistBuckets-1 {
				suffix = "+"
			}
			fmt.Fprintf(w, " %d%s:%d", i, suffix, v)
		}
		fmt.Fprintln(w)
	}
	for _, sc := range ks.CyclicSCCs {
		fmt.Fprintf(w, "cyclic scc rank %d: %s\n", sc.Rank, strings.Join(sc.Procs, ", "))
	}
	top := ks.TopProcs(topN)
	if len(top) > 0 {
		timed := false
		for _, p := range top {
			if p.TimeNS > 0 {
				timed = true
				break
			}
		}
		metric := "evaluations"
		if timed {
			metric = "sampled wall time"
		}
		fmt.Fprintf(w, "top processes by %s:\n", metric)
		for i, p := range top {
			kind := "comb"
			if p.Seq {
				kind = "seq"
			}
			rank := ""
			if !p.Seq && p.Rank >= 0 {
				rank = fmt.Sprintf("  rank %d", p.Rank)
				if p.Cyclic {
					rank += " (cyclic)"
				}
			}
			t := ""
			if timed {
				t = fmt.Sprintf("  %8.3fms", float64(p.TimeNS)/1e6)
			}
			fmt.Fprintf(w, "  %2d. %-40s %-4s %10d evals%s%s\n", i+1, p.Name, kind, p.Evals, t, rank)
		}
	}
}
