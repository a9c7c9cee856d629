package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"crve/internal/regress"
)

// A traced run prints every per-layer metric. Each metric comes from the
// workload's own traced passes where they reach the layer, and otherwise
// from the probe the traced run adds for it, in this order of preference:
//
//	signoff-cold:  cold replay, warm replay over its cache, service probe, layer probes
//	signoff-warm:  warm replays, the set-up fill (a cold replay), service probe, layer probes
//	service-mixed: the served jobs, the set-up fill (a cold replay), warm replay, layer probes
//
// The runtime.* metrics always come from the workload's own untraced passes
// (service-mixed: the whole loop, whose spans allocate next to nothing), and
// bench.trace_overhead_pct compares its traced and untraced passes.

// Span phases.
const (
	phaseOwn     = "own"
	phaseFill    = "fill"
	phaseWarm    = "warm-probe"
	phaseService = "service-probe"
	phaseLayer   = "layer-probe"
)

// traceCold is signoff-cold's traced run: untraced passes and traced
// replays, each into an empty cache, in the order untraced, traced, traced,
// untraced, so a drift in machine speed cancels out of the overhead.
func traceCold(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	in := makeInputs(env.seed, env.size)
	tr := newTracer()
	if err := coldSetup(ctx, env, in); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var plain, traced []time.Duration
	var use heapUse
	var plainCycles uint64
	var plainCached int
	var acc simAcc
	var cache *regress.Cache // the last traced replay's, kept for the probes
	var want string
	tr.setPhase(phaseOwn)
	for _, tracing := range []bool{false, true, true, false} {
		c, err := freshCache(env)
		if err != nil {
			return nil, err
		}
		if tracing {
			if cache != nil {
				os.RemoveAll(cache.Dir())
			}
			cache = c
			r, err := o.replayChecked(ctx, env, tr, in, c, want, "signoff-cold traced replay", &acc)
			if err != nil {
				return nil, err
			}
			traced = append(traced, r.elapsed)
			continue
		}
		heap := startHeap()
		p, err := signoffPass(ctx, in, c)
		use.add(heap.stop(), 2)
		os.RemoveAll(c.Dir())
		if err != nil {
			return nil, err
		}
		o.attempted += in.units()
		digest := o.checkPass(env, in, p, want, "signoff-cold pass")
		if want == "" {
			want = digest
			rc, _ := checkReport(p.report)
			printLedger(env.out, env.workload, env.seed, "matrix", rc)
		}
		plain = append(plain, p.elapsed)
		plainCycles += p.stats.Cycles
		plainCached += p.stats.Cached
	}
	o.setHeapMetrics(use, 2*in.units(), plainCycles, 2)
	o.metrics["regress.cache.hit_ratio"] = float64(plainCached) / float64(2*in.units())
	o.metrics["bench.trace_overhead_pct"] = overheadPct(traced, plain)
	acc.setMetrics(o)
	var err error
	if o.metrics["regress.cache.entry_bytes"], err = entryBytes(cache.Dir()); err != nil {
		return nil, err
	}

	tr.setPhase(phaseWarm)
	if _, err := o.replayChecked(ctx, env, tr, in, cache, want, "warm replay probe", nil); err != nil {
		return nil, err
	}
	tr.setPhase(phaseService)
	if err := o.serviceProbe(ctx, env, in, cache, tr); err != nil {
		return nil, err
	}
	return o.finishTrace(ctx, env, in, tr, phaseOwn, phaseWarm, phaseService, phaseLayer)
}

// overheadPct is how much slower the median traced pass is than the median
// untraced one, in percent.
func overheadPct(traced, plain []time.Duration) float64 {
	return 100 * (median(seconds(traced))/median(seconds(plain)) - 1)
}

// traceWarm is signoff-warm's traced run: a traced cold replay fills the
// cache, then untraced passes and traced replays alternate over it.
func traceWarm(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	in := makeInputs(env.seed, env.size)
	tr := newTracer()

	tr.setPhase(phaseFill)
	cache, err := freshCache(env)
	if err != nil {
		return nil, err
	}
	var acc simAcc
	fill, err := o.replayChecked(ctx, env, tr, in, cache, "", "signoff-warm traced fill", &acc)
	if err != nil {
		return nil, err
	}
	acc.setMetrics(o)
	rc, _ := checkReport(fill.report)
	want := rc.digest
	printLedger(env.out, env.workload, env.seed, "matrix", rc)
	if o.metrics["regress.cache.entry_bytes"], err = entryBytes(cache.Dir()); err != nil {
		return nil, err
	}

	tr.setPhase(phaseOwn)
	var plain, traced []time.Duration
	var use heapUse
	var cached int
	const passes = 3
	for i := 0; i < passes; i++ {
		heap := startHeap()
		p, err := signoffPass(ctx, in, cache)
		u := heap.stop()
		if err != nil {
			return nil, err
		}
		o.attempted += in.units()
		o.checkPass(env, in, p, want, fmt.Sprintf("signoff-warm pass %d", i+1))
		use.add(u, passes)
		cached += p.stats.Cached
		plain = append(plain, p.elapsed)

		r, err := o.replayChecked(ctx, env, tr, in, cache, want, fmt.Sprintf("signoff-warm traced replay %d", i+1), nil)
		if err != nil {
			return nil, err
		}
		traced = append(traced, r.elapsed)
	}
	o.setHeapMetrics(use, passes*in.units(), passes*rc.cycles, passes)
	o.metrics["regress.cache.hit_ratio"] = float64(cached) / float64(passes*in.units())
	o.metrics["bench.trace_overhead_pct"] = overheadPct(traced, plain)

	tr.setPhase(phaseService)
	if err := o.serviceProbe(ctx, env, in, cache, tr); err != nil {
		return nil, err
	}
	return o.finishTrace(ctx, env, in, tr, phaseOwn, phaseFill, phaseService, phaseLayer)
}

// traceService is service-mixed's traced run: a traced cold replay fills
// the shared cache with the cached seed, then the closed loop runs the
// window with every other round traced.
func traceService(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	in := makeInputs(env.seed, env.size)
	plan := newJobPlan(env.seed, in, clientCount())
	fillIn := inputs{cfgs: in.cfgs, tests: in.tests, seeds: []int64{plan.cached}}
	tr := newTracer()

	tr.setPhase(phaseFill)
	cache, err := freshCache(env)
	if err != nil {
		return nil, err
	}
	var acc simAcc
	fill, err := o.replayChecked(ctx, env, tr, fillIn, cache, "", "service-mixed traced fill", &acc)
	if err != nil {
		return nil, err
	}
	acc.setMetrics(o)
	rc, _ := checkReport(fill.report)
	if o.metrics["regress.cache.entry_bytes"], err = entryBytes(cache.Dir()); err != nil {
		return nil, err
	}
	tr.setPhase(phaseWarm)
	if _, err := o.replayChecked(ctx, env, tr, fillIn, cache, rc.digest, "warm replay probe", nil); err != nil {
		return nil, err
	}

	svc, err := startService(cache, plan.clients)
	if err != nil {
		return nil, err
	}
	// Odd rounds are traced, so the traced and untraced rounds draw from the
	// same configuration mix and the same stretch of time.
	tr.setPhase(phaseOwn)
	heap := startHeap()
	samples, rounds, _ := svc.loop(ctx, plan, env.size.minRounds, env.window, func(r int) *tracer {
		if r%2 == 1 {
			return tr
		}
		return nil
	})
	use := heap.stop()
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	if err := o.checkJobs(ctx, env, in, cache, samples, env.size.minRounds); err != nil {
		return nil, err
	}
	// Rounds differ in work by the configurations drawn, so the overhead
	// compares round time per simulated cycle of the two kinds of rounds.
	var roundTime, roundCycles [2]float64
	for r, d := range rounds {
		roundTime[r%2] += d.Seconds()
	}
	var cycles uint64
	for _, js := range samples {
		cycles += js.status.Progress.Cycles
		roundCycles[js.round%2] += float64(js.status.Progress.Cycles)
	}
	planned, ran, cached := jobUnits(samples)
	o.metrics["jobs.simulated_per_planned"] = ran / planned
	o.metrics["regress.cache.hit_ratio"] = cached / planned
	o.setHeapMetrics(use, int(planned), cycles, len(rounds))
	o.metrics["bench.trace_overhead_pct"] = 100 * (roundTime[1]/roundCycles[1]/(roundTime[0]/roundCycles[0]) - 1)
	return o.finishTrace(ctx, env, in, tr, phaseOwn, phaseFill, phaseWarm, phaseLayer)
}

// replayChecked runs a traced replay and applies the output check to its
// report against want ("" checks sign-off only).
func (o *outcome) replayChecked(ctx context.Context, env *runEnv, tr *tracer, in inputs, cache *regress.Cache, want, what string, acc *simAcc) (replayed, error) {
	r, err := replay(ctx, tr, in, cache, acc)
	if err != nil {
		return r, fmt.Errorf("%s: %w", what, err)
	}
	o.attempted += in.units()
	o.checkPass(env, in, pass{report: r.report}, want, what)
	return r, nil
}

// serviceProbe runs size.probeRounds rounds of service-mixed's closed loop
// against cache, traced, for the service layers a batch workload does not
// reach.
func (o *outcome) serviceProbe(ctx context.Context, env *runEnv, in inputs, cache *regress.Cache, tr *tracer) error {
	plan := newJobPlan(env.seed, in, clientCount())
	svc, err := startService(cache, plan.clients)
	if err != nil {
		return err
	}
	samples, _, _ := svc.loop(ctx, plan, env.size.probeRounds, 0, func(int) *tracer { return tr })
	if err := svc.stop(); err != nil {
		return fmt.Errorf("stop service: %w", err)
	}
	if err := o.checkJobs(ctx, env, in, cache, samples, env.size.probeRounds); err != nil {
		return err
	}
	planned, ran, _ := jobUnits(samples)
	o.metrics["jobs.simulated_per_planned"] = ran / planned
	return nil
}

// jobUnits sums the planned, simulated and cache-served units of the jobs.
func jobUnits(samples []jobSample) (planned, ran, cached float64) {
	for _, js := range samples {
		planned += float64(js.status.Progress.Total)
		ran += float64(js.status.Progress.Ran)
		cached += float64(js.status.Progress.Cached)
	}
	return planned, ran, cached
}

// finishTrace runs the layer probes, derives the span metrics from the
// phases in order of preference and writes the spans out.
func (o *outcome) finishTrace(ctx context.Context, env *runEnv, in inputs, tr *tracer, phases ...string) (*outcome, error) {
	tr.setPhase(phaseLayer)
	if err := o.layerProbe(ctx, env, in, tr); err != nil {
		return nil, err
	}
	for _, m := range spanMetrics {
		o.metrics[m.metric] = durQuantile(tr.pick(m.span, phases...), 0.5, m.unit)
	}
	o.metrics["core.pair_p90_ms"] = durQuantile(tr.pick("core.pair", phases...), 0.9, time.Millisecond)
	o.metrics["regress.report.bytes"] = medianCount(tr.pick("regress.report.encode", phases...))
	o.metrics["api.report_bytes"] = medianCount(tr.pick("api.report", phases...))

	path, err := tr.write(env.spanDir, env.workload, env.seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(env.out, "spans %s: %d\n", path, len(tr.spans))
	return o, nil
}

// spanMetrics are the per-layer metrics that are the median duration of one
// kind of span, in the metric's unit.
var spanMetrics = []struct {
	metric, span string
	unit         time.Duration
}{
	{"regress.cache.key_us", "regress.cache.key", time.Microsecond},
	{"regress.cache.load_us", "regress.cache.load", time.Microsecond},
	{"regress.cache.result_us", "regress.cache.result", time.Microsecond},
	{"regress.cache.store_us", "regress.cache.store", time.Microsecond},
	{"regress.merge_us", "regress.merge", time.Microsecond},
	{"coverage.equal_us", "coverage.equal", time.Microsecond},
	{"rtl.elab_us", "rtl.elab", time.Microsecond},
	{"bca.elab_us", "bca.elab", time.Microsecond},
	{"catg.genops_us", "catg.genops", time.Microsecond},
	{"regress.report.build_ms", "regress.report.build", time.Millisecond},
	{"regress.report.encode_ms", "regress.report.encode", time.Millisecond},
	{"lint.gate_ms", "lint.gate", time.Millisecond},
	{"core.pair_ms", "core.pair", time.Millisecond},
	{"api.submit_ms", "api.submit", time.Millisecond},
	{"jobs.queue_wait_ms", "jobs.queue_wait", time.Millisecond},
	{"jobs.run_ms", "jobs.run", time.Millisecond},
	{"api.notify_ms", "api.notify", time.Millisecond},
	{"api.report_ms", "api.report", time.Millisecond},
}

// durQuantile is the q-quantile of the spans' durations in unit.
func durQuantile(ss []span, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.dur()) / float64(unit)
	}
	return quantile(xs, q)
}

// medianCount is the median Count of the picked spans.
func medianCount(ss []span) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.Count)
	}
	return median(xs)
}
