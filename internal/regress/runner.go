package regress

// This file is the incremental, parallel regression engine. Every
// (configuration, test, seed) triple of a matrix run is an independent work
// unit — core.RunPair builds a fresh simulator per view and shares nothing —
// so the engine fans units out across a bounded worker pool and funnels
// every outcome through one merge goroutine that applies them in canonical
// (config, test, seed) order. All shared state — coverage merges, aggregate
// counters, the progress log, cached/ran statistics — is touched only on
// that goroutine, which makes the run race-free by construction and its
// output byte-identical to a serial run regardless of scheduling.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"crve/internal/core"
	"crve/internal/nodespec"
)

// Stats counts how the engine satisfied a run's work units. The engine is
// the one place throughput is computed: everything downstream — the CLI
// summary, the service dashboard, CI — reads these fields instead of
// re-deriving cycles/s ad hoc.
type Stats struct {
	// Ran counts units that were actually simulated; Cached counts units
	// served from the incremental result cache.
	Ran, Cached int
	// Cycles totals the simulated cycles of ran units across both views.
	// Cached units contribute nothing: they cost no simulation.
	Cycles uint64
	// Duration is the wall-clock time of the engine run. It is the only
	// non-deterministic field, so the canonical report (BuildReport) and
	// String() exclude it — byte-identical output stays byte-identical.
	Duration time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("%d ran, %d cached", s.Ran, s.Cached)
}

// Throughput returns the run's simulation rate in cycles per second (0 when
// nothing was simulated or no time elapsed).
func (s Stats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Cycles) / s.Duration.Seconds()
}

// Progress is one merged-work-unit notification, delivered to
// Options.Progress from the merge goroutine in canonical order — the
// injected sink a job manager counts on instead of parsing the log.
type Progress struct {
	// Done counts units merged so far; Total is the planned unit count.
	Done, Total int
	// Ran / Cached split Done by how the unit was satisfied; Cycles totals
	// simulated cycles so far (both views, ran units only).
	Ran, Cached int
	Cycles      uint64
	// Config, Test, Seed identify the unit just merged; FromCache reports
	// whether it was served from the result cache.
	Config    string
	Test      string
	Seed      int64
	FromCache bool
}

// workUnit is one (configuration, test, seed) triple. idx is its position
// in canonical order — the merge sequence and the tiebreaker that keeps
// parallel output deterministic.
type workUnit struct {
	idx    int
	cfgIdx int
	cfg    nodespec.Config
	test   core.Test
	seed   int64
}

// unitOutcome is what a worker hands the merge goroutine.
type unitOutcome struct {
	idx    int
	pair   *core.PairResult
	cached bool
	err    error
}

// runEngine plans, executes and merges a matrix run. Callers have already
// defaulted opt.Seeds; the lint gate (if any) runs before this point.
// logHeaders controls the per-configuration banner line (RunMatrix prints
// it, RunConfig historically does not).
//
// Cancelling ctx stops the run promptly: the producer stops feeding units,
// in-flight units abort at their next cancellation check, and the engine
// returns ctx's error after draining. Units that completed before the cancel
// are already merged and (with a cache) stored; aborted units leave no cache
// entry — a cancelled matrix leaves the store consistent, never torn.
func runEngine(ctx context.Context, cfgs []nodespec.Config, opt Options, logHeaders bool) ([]*ConfigResult, Stats, error) {
	start := time.Now()
	if len(opt.Tests) == 0 {
		return nil, Stats{}, fmt.Errorf("regress: empty test suite: Options.Tests must name at least one test (a zero-run configuration can never sign off)")
	}
	seeds := opt.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}

	results := make([]*ConfigResult, len(cfgs))
	units := make([]workUnit, 0, len(cfgs)*len(opt.Tests)*len(seeds))
	for ci := range cfgs {
		cfg := cfgs[ci].WithDefaults()
		results[ci] = newConfigResult(cfg)
		for _, test := range opt.Tests {
			for _, seed := range seeds {
				units = append(units, workUnit{idx: len(units), cfgIdx: ci, cfg: cfg, test: test, seed: seed})
			}
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	work := make(chan workUnit)
	outcomes := make(chan unitOutcome)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	// Producer: feeds units in canonical order, quits early on abort or
	// cancellation.
	go func() {
		defer close(work)
		for _, u := range units {
			select {
			case work <- u:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: simulate (or fetch) units, touching nothing shared.
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				outcomes <- runUnit(ctx, u, opt)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	// Merge loop — the single goroutine where outcomes meet shared state.
	// Outcomes arrive in completion order; a reorder buffer applies them in
	// canonical order, so logs, aggregates and the eventual MatrixReport
	// never depend on scheduling. On the first (canonical-order) error the
	// engine stops feeding work and drains the in-flight units.
	var (
		stats    Stats
		firstErr error
		pending  = make(map[int]unitOutcome)
		next     = 0
		lastCfg  = -1
	)
	for o := range outcomes {
		pending[o.idx] = o
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil {
				continue // draining after an error
			}
			if cur.err != nil {
				firstErr = cur.err
				abort()
				continue
			}
			u := units[cur.idx]
			if logHeaders && opt.Log != nil && u.cfgIdx != lastCfg {
				fmt.Fprintf(opt.Log, "%s (%v)\n", u.cfg.Name, u.cfg)
				lastCfg = u.cfgIdx
			}
			if err := results[u.cfgIdx].add(u.test.Name, u.seed, cur.pair, cur.cached); err != nil {
				firstErr = err
				abort()
				continue
			}
			if cur.cached {
				stats.Cached++
			} else {
				stats.Ran++
				stats.Cycles += cur.pair.RTL.Cycles + cur.pair.BCA.Cycles
			}
			if opt.Progress != nil {
				opt.Progress(Progress{
					Done: stats.Ran + stats.Cached, Total: len(units),
					Ran: stats.Ran, Cached: stats.Cached, Cycles: stats.Cycles,
					Config: u.cfg.Name, Test: u.test.Name, Seed: u.seed,
					FromCache: cur.cached,
				})
			}
			if opt.Log != nil {
				suffix := ""
				if cur.cached {
					suffix = "  (cached)"
				}
				fmt.Fprintf(opt.Log, "  %s seed=%d  align=%.2f%% covEq=%v rtl=%s bca=%s%s\n",
					u.test.Name, u.seed, cur.pair.Alignment.MinRate(), cur.pair.CoverageEqual,
					passStr(cur.pair.RTL.Passed()), passStr(cur.pair.BCA.Passed()), suffix)
			}
		}
	}
	stats.Duration = time.Since(start)
	if firstErr == nil {
		// The producer may have quit on cancellation with every in-flight
		// unit still completing cleanly; the run is nonetheless incomplete.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	return results, stats, nil
}

// runPair simulates one unit; tests swap it to watch or stall simulations.
var runPair = core.RunPairCtx

// runUnit executes one work unit: cache/flight probe, simulation on a miss,
// cache fill. Runs on a worker goroutine; everything it touches is
// unit-local. With a cache, the acquire/release flight protocol guarantees
// at most one goroutine in the process ever simulates a given key, across
// every engine run sharing the Cache. With a budget, the unit holds a token
// from after it owns the miss until its result is stored, never while it
// waits on a flight, so no owner can wait for a token a waiter holds. A
// panic while elaborating or simulating fails this unit with an error that
// carries the stack: the process and every other job go on, nothing is
// stored, and the deferred releases (which run first) give back the token
// and free the unit's flight.
func runUnit(ctx context.Context, u workUnit, opt Options) (out unitOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = unitOutcome{idx: u.idx, err: fmt.Errorf("regress: %s/%s seed %d: panic: %v\n%s",
				u.cfg.Name, u.test.Name, u.seed, r, debug.Stack())}
		}
	}()
	var key string
	if opt.Cache != nil {
		key = opt.Cache.Key(u.cfg, u.test.Name, u.seed, opt.Bugs, "")
		rec, release, err := opt.Cache.acquire(ctx, key)
		if err != nil {
			return unitOutcome{idx: u.idx, err: fmt.Errorf("regress: %s/%s seed %d: %w", u.cfg.Name, u.test.Name, u.seed, err)}
		}
		if rec != nil {
			return unitOutcome{idx: u.idx, pair: rec.Result(u.cfg), cached: true}
		}
		defer release()
	}
	if opt.Tokens != nil {
		select {
		case opt.Tokens <- struct{}{}:
			defer func() { <-opt.Tokens }()
		case <-ctx.Done():
		}
	}
	if err := ctx.Err(); err != nil {
		return unitOutcome{idx: u.idx, err: fmt.Errorf("regress: %s/%s seed %d: %w", u.cfg.Name, u.test.Name, u.seed, err)}
	}
	pair, err := runPair(ctx, u.cfg, u.test, u.seed, core.RunOptions{
		Bugs: opt.Bugs, KernelStats: opt.KernelStats, RecordWave: opt.RecordWave,
	})
	if err != nil {
		return unitOutcome{idx: u.idx, err: fmt.Errorf("regress: %s/%s seed %d: %w", u.cfg.Name, u.test.Name, u.seed, err)}
	}
	if opt.Cache != nil {
		if err := opt.Cache.Store(key, u.cfg, u.test.Name, u.seed, pair.Record()); err != nil {
			return unitOutcome{idx: u.idx, err: fmt.Errorf("regress: %s/%s seed %d: %w", u.cfg.Name, u.test.Name, u.seed, err)}
		}
	}
	return unitOutcome{idx: u.idx, pair: pair}
}
