package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/sim"
)

// The traced replay runs a matrix through the public calls regress.Run
// makes for it — the lint gate; per unit the cache key, the cache probe and
// either the record→result conversion or the paired run and the cache
// store; the merge in canonical order; the report — with a span around each
// call. The paired run is core.RunPairCtx taken apart into its own public
// calls (the RTL view, the BCA view observing the RTL recording, the
// coverage comparison), so each view gets a span. Its report must equal the
// engine's byte for byte once normalised.

// unit is one (configuration, test, seed) work unit in canonical order.
type unit struct {
	idx, ci int
	cfg     nodespec.Config
	test    core.Test
	seed    int64
}

func (u unit) key() string { return fmt.Sprintf("%s/%s/%d", u.cfg.Name, u.test.Name, u.seed) }

// planUnits lists in's units in the engine's canonical order.
func planUnits(in inputs) []unit {
	var units []unit
	for ci, c := range in.cfgs {
		cfg := c.WithDefaults()
		for _, t := range in.tests {
			for _, s := range in.seeds {
				units = append(units, unit{idx: len(units), ci: ci, cfg: cfg, test: t, seed: s})
			}
		}
	}
	return units
}

// unitResult is what a replayed unit hands the merge loop.
type unitResult struct {
	idx    int
	pair   *core.PairResult
	cached bool
	kernel [2]*sim.KernelStats // RTL and BCA profiles of a simulated unit
	view   [2]time.Duration    // wall time of the RTL and BCA view runs
	err    error
}

// simAcc sums the kernel profiles of simulated units by layer.
type simAcc struct {
	cycles, viewNS, dutNS      [2]float64 // per view: cycles, view wall time, sampled DUT process time
	bfmNS                      float64    // sampled *.bfm process time, both views
	deltas, evals, closureEval float64
}

func (a *simAcc) add(r unitResult) {
	for v, ks := range r.kernel {
		if ks == nil {
			return
		}
		a.cycles[v] += float64(ks.Cycles)
		a.viewNS[v] += float64(r.view[v])
		a.deltas += float64(ks.Deltas)
		a.evals += float64(ks.CompiledEvals + ks.ClosureEvals)
		a.closureEval += float64(ks.ClosureEvals)
		// Processes carry no layer tag yet: a BFM registers as "<port>.bfm",
		// everything else in the kernel belongs to the DUT view.
		for _, p := range ks.Procs {
			if strings.HasSuffix(p.Name, ".bfm") {
				a.bfmNS += float64(p.TimeNS)
			} else {
				a.dutNS[v] += float64(p.TimeNS)
			}
		}
	}
}

// setMetrics fills the view, kernel and process-time metrics. Nanoseconds
// per cycle are microseconds per kilocycle.
func (a *simAcc) setMetrics(o *outcome) {
	all := a.cycles[0] + a.cycles[1]
	if all == 0 {
		all = 1 // a tiny matrix served entirely from cache: every sum is 0
	}
	per := func(x, cycles float64) float64 {
		if cycles == 0 {
			return 0
		}
		return x / cycles
	}
	o.metrics["core.rtl_us_per_kcycle"] = per(a.viewNS[0], a.cycles[0])
	o.metrics["core.bca_us_per_kcycle"] = per(a.viewNS[1], a.cycles[1])
	o.metrics["rtl.proc_us_per_kcycle"] = per(a.dutNS[0], a.cycles[0])
	o.metrics["bca.proc_us_per_kcycle"] = per(a.dutNS[1], a.cycles[1])
	o.metrics["catg.bfm_us_per_kcycle"] = a.bfmNS / all
	o.metrics["sim.hooks_us_per_kcycle"] = (a.viewNS[0] + a.viewNS[1] - a.dutNS[0] - a.dutNS[1] - a.bfmNS) / all
	o.metrics["sim.deltas_per_cycle"] = a.deltas / all
	o.metrics["sim.evals_per_cycle"] = a.evals / all
	o.metrics["sim.closure_evals_per_cycle"] = a.closureEval / all
}

// replayed is the outcome of one traced replay pass.
type replayed struct {
	report  *regress.Report
	stats   regress.Stats
	elapsed time.Duration
}

// replay runs one traced sign-off pass of in against cache, adding the
// kernel profiles of the units it simulates to acc (when not nil).
func replay(ctx context.Context, tr *tracer, in inputs, cache *regress.Cache, acc *simAcc) (replayed, error) {
	var out replayed
	start := time.Now()
	root := tr.begin("pass", "", 0)
	defer func() { tr.end(root, 0) }()

	id := tr.begin("lint.gate", "", root)
	lint := regress.LintConfigs(in.cfgs, in.seeds)
	tr.end(id, 0)
	if lint.HasErrors() {
		return out, fmt.Errorf("matrix fails lint: %s", lint.Summary())
	}

	units := planUnits(in)
	results := make([]*regress.ConfigResult, len(in.cfgs))
	for ci, c := range in.cfgs {
		cfg := c.WithDefaults()
		results[ci] = &regress.ConfigResult{
			Cfg:              cfg,
			SuiteCoverage:    catg.NewCoverageModel(cfg, regress.SuiteTraffic(cfg)).Group,
			CodeCov:          coverage.NewCodeMap(),
			CoverageAllEqual: true,
			MinAlignment:     100,
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan unit)
	done := make(chan unitResult)
	go func() {
		defer close(work)
		for _, u := range units {
			select {
			case work <- u:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < min(runtime.GOMAXPROCS(0), len(units)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				done <- replayUnit(ctx, tr, root, u, cache)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Merge in canonical order through a reorder buffer, as the engine does.
	var firstErr error
	pending := make(map[int]unitResult)
	next := 0
	for r := range done {
		pending[r.idx] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil {
				continue
			}
			if cur.err != nil {
				firstErr = cur.err
				cancel()
				continue
			}
			u := units[cur.idx]
			id := tr.begin("regress.merge", u.key(), root)
			err := mergeRun(results[u.ci], u.test.Name, u.seed, cur.pair, cur.cached)
			tr.end(id, 0)
			if err != nil {
				firstErr = err
				cancel()
				continue
			}
			if cur.cached {
				out.stats.Cached++
			} else {
				out.stats.Ran++
				out.stats.Cycles += cur.pair.RTL.Cycles + cur.pair.BCA.Cycles
				if acc != nil {
					acc.add(cur)
				}
			}
		}
	}
	if firstErr != nil {
		return out, firstErr
	}

	id = tr.begin("regress.report.build", "", root)
	out.report = regress.BuildReport(results, out.stats)
	tr.end(id, 0)
	var buf bytes.Buffer
	id = tr.begin("regress.report.encode", "", root)
	err := regress.WriteJSON(&buf, out.report)
	tr.end(id, uint64(buf.Len()))
	if err != nil {
		return out, fmt.Errorf("encode report: %w", err)
	}
	out.elapsed = time.Since(start)
	return out, nil
}

// replayUnit runs one unit: cache key and probe, then either the stored
// record's conversion or the paired run and the store.
func replayUnit(ctx context.Context, tr *tracer, root int, u unit, cache *regress.Cache) unitResult {
	res := unitResult{idx: u.idx}
	key := u.key()
	uid := tr.begin("unit", key, root)
	defer func() { tr.end(uid, 0) }()
	fail := func(err error) unitResult {
		res.err = fmt.Errorf("%s: %w", key, err)
		return res
	}

	id := tr.begin("regress.cache.key", key, uid)
	ck := cache.Key(u.cfg, u.test.Name, u.seed, bca.Bugs{}, "")
	tr.end(id, 0)
	id = tr.begin("regress.cache.load", key, uid)
	rec, hit := cache.Load(ck)
	tr.end(id, 0)
	if hit {
		id = tr.begin("regress.cache.result", key, uid)
		res.pair, res.cached = rec.Result(u.cfg), true
		tr.end(id, 0)
		return res
	}

	pid := tr.begin("core.pair", key, uid)
	t0 := time.Now()
	id = tr.begin("core.rtl", key, pid)
	rres, err := core.RunTestCtx(ctx, u.cfg, core.RTLView, u.test, u.seed, core.RunOptions{RecordWave: true, KernelStats: true})
	if err != nil {
		return fail(err)
	}
	tr.end(id, rres.Cycles)
	t1 := time.Now()
	id = tr.begin("core.bca", key, pid)
	bres, err := core.RunTestCtx(ctx, u.cfg, core.BCAView, u.test, u.seed, core.RunOptions{AlignWith: rres.Wave, KernelStats: true})
	if err != nil {
		return fail(err)
	}
	tr.end(id, bres.Cycles)
	t2 := time.Now()
	id = tr.begin("coverage.equal", key, pid)
	pair := &core.PairResult{RTL: rres, BCA: bres, Alignment: bres.Alignment}
	pair.CoverageEqual, pair.CoverageDiff = rres.Coverage.EqualHits(bres.Coverage)
	tr.end(id, 0)
	tr.end(pid, rres.Cycles+bres.Cycles)
	bres.Alignment, rres.Wave = nil, nil
	res.view = [2]time.Duration{t1.Sub(t0), t2.Sub(t1)}
	// The kernel profile feeds the layer metrics; the stored record stays
	// exactly what an untraced run stores.
	res.kernel = [2]*sim.KernelStats{rres.Kernel, bres.Kernel}
	rres.Kernel, bres.Kernel = nil, nil

	id = tr.begin("regress.cache.store", key, uid)
	err = cache.Store(ck, u.cfg, u.test.Name, u.seed, pair.Record())
	tr.end(id, 0)
	if err != nil {
		return fail(err)
	}
	res.pair = pair
	return res
}

// mergeRun folds one run into its configuration's aggregate, as the engine's
// merge does.
func mergeRun(cr *regress.ConfigResult, test string, seed int64, pair *core.PairResult, cached bool) error {
	cr.Runs = append(cr.Runs, regress.TestRun{Test: test, Seed: seed, Pair: pair, Cached: cached})
	if !pair.RTL.Passed() {
		cr.RTLFailures++
	}
	if !pair.BCA.Passed() {
		cr.BCAFailures++
	}
	if !pair.CoverageEqual {
		cr.CoverageAllEqual = false
	}
	if r := pair.Alignment.MinRate(); r < cr.MinAlignment {
		cr.MinAlignment = r
	}
	if err := cr.SuiteCoverage.Merge(pair.RTL.Coverage); err != nil {
		return fmt.Errorf("coverage merge: %w", err)
	}
	if pair.RTL.CodeCov != nil {
		cr.CodeCov.Merge(pair.RTL.CodeCov)
	}
	return nil
}

// entryBytes is the mean size of the entries in a cache directory.
func entryBytes(dir string) (float64, error) {
	var total, n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		n++
		return nil
	})
	if n == 0 {
		return 0, err
	}
	return float64(total) / float64(n), err
}
