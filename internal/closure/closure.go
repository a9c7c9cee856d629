package closure

// This file is the one regression driver every front end calls, and the
// closure loop inside it: run the suite, then — for each configuration left
// below full coverage — plan against the holes of its merged suite coverage,
// run the synthesized units on the regression engine, merge their coverage
// back in canonical order, repeat until full or out of budget. The loop's
// entire observable output is the core.ClosureTrajectory record; report.go
// renders it.

import (
	"context"
	"fmt"
	"time"

	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/regress"
)

// Options tunes a regression run and its closure loop. The embedded
// regress.Options drive the suite; closure units share its Seeds, Bugs,
// Log, Progress, Workers, Tokens and Cache, but never collect a kernel
// profile or a waveform recording.
type Options struct {
	regress.Options
	// Close runs the closure loop on every configuration the suite leaves
	// below 100 % functional coverage.
	Close bool
	// MaxIters bounds the loop per configuration (default 8).
	MaxIters int
	// Budget bounds the cycles, both views, that closure units cost per
	// configuration; 0 means unlimited. Cached units charge their recorded
	// cost, so a warm trajectory is identical to the cold one that produced
	// it. The check runs between iterations, so the final iteration may
	// overshoot.
	Budget uint64
}

// stallIters stops the loop after this many consecutive iterations that
// closed no new bin: more of the same stimulus is not going to help.
const stallIters = 3

// Result is the outcome of Run.
type Result struct {
	// Results holds the per-configuration aggregates in input order. A
	// closed configuration's SuiteCoverage includes what closure bought;
	// its Runs stay the suite's.
	Results []*regress.ConfigResult
	// Stats counts suite and closure units alike.
	Stats regress.Stats
	// Trajectories holds one record per configuration the loop ran on, in
	// result order.
	Trajectories []*core.ClosureTrajectory
}

// Run is the regression driver behind cmd/regress and the job service: it
// runs the suite through regress.RunCtx and, when opt.Close is set, the
// closure loop on each configuration left below full functional coverage.
// Progress events cover the whole run: closure units count on from the
// suite's totals. Cancelling ctx stops the suite or the loop promptly, as in
// regress.RunCtx.
func Run(ctx context.Context, cfgs []nodespec.Config, opt Options) (*Result, error) {
	start := time.Now()
	results, stats, err := regress.RunCtx(ctx, cfgs, opt.Options)
	if err != nil {
		return nil, err
	}
	res := &Result{Results: results, Stats: stats}
	if opt.Close {
		for _, cr := range results {
			if cr.SuiteCoverage.Full() {
				continue
			}
			traj, err := closeGroup(ctx, cr.Cfg, cr.SuiteCoverage, opt, &res.Stats)
			if err != nil {
				return nil, err
			}
			res.Trajectories = append(res.Trajectories, traj)
		}
	}
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// closureSeed derives the deterministic seed of one closure iteration from
// the base seed. The offset keeps closure seeds disjoint from any plausible
// hand-picked suite seed, so a synthesized unit never aliases a suite run.
func closureSeed(base int64, iter int) int64 {
	return base*1_000_000 + int64(iter)
}

// closeGroup runs the closure loop against an already-populated suite
// coverage group, mutating it as holes close, and adds every closure unit
// to stats. Seeds[0] (default 1) salts the per-iteration seeds, so a
// different base seed explores a different trajectory. A group with no
// holes returns at once with zero iterations and an untouched cache. The
// loop checks ctx between iterations and the engine checks it within each.
func closeGroup(ctx context.Context, cfg nodespec.Config, cov *coverage.Group, opt Options, stats *regress.Stats) (*core.ClosureTrajectory, error) {
	cfg = cfg.WithDefaults()
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 8
	}
	baseSeed := int64(1)
	if len(opt.Seeds) > 0 {
		baseSeed = opt.Seeds[0]
	}

	// Statically unreachable bins (lint CRVE017) are never planned for: no
	// stimulus closes them, and chasing them would only burn the budget.
	dead := map[coverage.Hole]bool{}
	traj := &core.ClosureTrajectory{Config: cfg.Name, Group: cov.Name}
	for _, d := range catg.UnreachableBins(cfg, catg.UnionTraffic(cfg)) {
		dead[d] = true
		traj.DeadBins = append(traj.DeadBins, d.String())
	}

	_, traj.TotalBins = cov.Covered()
	traj.StartPercent = cov.Percent()
	traj.HolesStart = len(cov.Holes())

	stall := 0
	for iter := 1; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("closure: %s: %w", cfg.Name, err)
		}
		all := cov.Holes()
		var live []coverage.Hole
		for _, h := range all {
			if !dead[h] {
				live = append(live, h)
			}
		}
		if len(all) == 0 {
			traj.Reason = core.ClosureFull
			traj.Converged = true
			break
		}
		if len(live) == 0 {
			traj.Reason = core.ClosureDeadBins
			traj.Converged = true
			break
		}
		if iter > maxIters {
			traj.Reason = core.ClosureMaxIters
			break
		}
		if opt.Budget > 0 && traj.TotalCycles >= opt.Budget {
			traj.Reason = core.ClosureBudget
			break
		}
		if stall >= stallIters {
			traj.Reason = core.ClosureStalled
			break
		}

		// Dose each recipe by its measured record so far: recipes whose
		// previous attempts yielded no new bins escalate geometrically,
		// productive ones stay at the base dose.
		units := PlanWith(cfg, live, HistoryOf(traj))
		if len(units) == 0 {
			traj.Reason = core.ClosureStalled
			break
		}
		seed := closureSeed(baseSeed, iter)
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "closure %s iter %d: %d hole(s), %d unit(s), seed %d\n",
				cfg.Name, iter, len(live), len(units), seed)
		}
		tests := make([]core.Test, len(units))
		for i, u := range units {
			tests[i] = u.Test
		}
		// Synthesized units bypass the lint gate: the configuration already
		// passed it (or was explicitly -nolint'ed) before the suite ran.
		iopt := regress.Options{
			Tests: tests, Seeds: []int64{seed}, Bugs: opt.Bugs,
			Log: opt.Log, Workers: opt.Workers, Tokens: opt.Tokens, Cache: opt.Cache,
		}
		if opt.Progress != nil {
			iopt.Progress = countOn(opt.Progress, *stats)
		}
		cres, err := regress.RunConfigCtx(ctx, cfg, iopt)
		if err != nil {
			return nil, fmt.Errorf("closure: %s iter %d: %w", cfg.Name, iter, err)
		}

		// Merge in canonical order (cres.Runs follows the tests order) and
		// attribute each newly-hit bin to the first unit whose merge closed
		// it — deterministic at any worker count.
		itRec := core.ClosureIteration{Iter: iter, HolesBefore: len(all)}
		for i, run := range cres.Runs {
			before := len(cov.Holes())
			if err := cov.Merge(run.Pair.RTL.Coverage); err != nil {
				return nil, fmt.Errorf("closure: %s iter %d: %w", cfg.Name, iter, err)
			}
			cycles := run.Pair.RTL.Cycles + run.Pair.BCA.Cycles
			passed := run.Pair.SignedOff()
			if !passed {
				traj.Failures++
			}
			if run.Cached {
				itRec.CacheHits++
				traj.UnitsCached++
				stats.Cached++
			} else {
				traj.UnitsRun++
				stats.Ran++
				stats.Cycles += cycles
			}
			itRec.Cycles += cycles
			itRec.Units = append(itRec.Units, core.ClosureUnit{
				Test:    run.Test,
				Seed:    seed,
				Holes:   holeStrings(units[i].Holes),
				NewBins: before - len(cov.Holes()),
				Cycles:  cycles,
				Cached:  run.Cached,
				Passed:  passed,
			})
		}
		itRec.HolesAfter = len(cov.Holes())
		itRec.NewBins = itRec.HolesBefore - itRec.HolesAfter
		traj.TotalCycles += itRec.Cycles
		traj.Iterations = append(traj.Iterations, itRec)
		if itRec.NewBins == 0 {
			stall++
		} else {
			stall = 0
		}
	}

	traj.HolesEnd = len(cov.Holes())
	traj.FinalPercent = cov.Percent()
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "closure %s: %s\n", cfg.Name, Summary(traj))
	}
	return traj, nil
}

// countOn adapts an iteration's run-relative progress events to whole-run
// ones, counting on from done — the units merged before the iteration.
func countOn(sink func(regress.Progress), done regress.Stats) func(regress.Progress) {
	units := done.Ran + done.Cached
	return func(p regress.Progress) {
		p.Done += units
		p.Total += units
		p.Ran += done.Ran
		p.Cached += done.Cached
		p.Cycles += done.Cycles
		sink(p)
	}
}

func holeStrings(hs []coverage.Hole) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.String()
	}
	return out
}
