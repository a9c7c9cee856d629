package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"crve/internal/regress"
)

// pass is one full-matrix sign-off as a user runs it: the engine over the
// matrix with default options, then the canonical report rendered.
type pass struct {
	elapsed time.Duration
	report  *regress.Report
	stats   regress.Stats
	// verdicts holds, per configuration, the time from the start of the pass
	// until that configuration's last unit merged — when a user watching the
	// run learns the configuration's verdict.
	verdicts []time.Duration
}

// signoffPass runs one sign-off of in against cache (nil runs cacheless).
func signoffPass(ctx context.Context, in inputs, cache *regress.Cache) (pass, error) {
	var p pass
	perCfg := len(in.tests) * len(in.seeds)
	start := time.Now()
	results, stats, err := regress.RunCtx(ctx, in.cfgs, regress.Options{
		Tests: in.tests, Seeds: in.seeds, Cache: cache,
		Progress: func(pr regress.Progress) {
			if pr.Done%perCfg == 0 {
				p.verdicts = append(p.verdicts, time.Since(start))
			}
		},
	})
	if err != nil {
		return p, err
	}
	p.report = regress.BuildReport(results, stats)
	var buf bytes.Buffer
	if err := regress.WriteJSON(&buf, p.report); err != nil {
		return p, fmt.Errorf("encode report: %w", err)
	}
	p.elapsed = time.Since(start)
	p.stats = stats
	return p, nil
}

// freshCache opens an empty result cache in a new directory under the run's
// scratch directory.
func freshCache(env *runEnv) (*regress.Cache, error) {
	dir, err := os.MkdirTemp(env.scratch, "cache-")
	if err != nil {
		return nil, err
	}
	return regress.OpenCache(dir)
}

// timedSetups runs setup env.size.setups times and returns the durations.
// Each call but the last must release what it built; the last one's state
// is what the run measures.
func timedSetups(env *runEnv, setup func(last bool) error) ([]time.Duration, error) {
	ds := make([]time.Duration, env.size.setups)
	for i := range ds {
		start := time.Now()
		if err := setup(i == len(ds)-1); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ds[i] = time.Since(start)
	}
	// Start every measuring window from the same heap: without this, how
	// much garbage set-up left behind shifts the first collections.
	runtime.GC()
	return ds, nil
}

// checkPass applies the output check to a pass against the reference digest
// want ("" accepts any digest) and returns the pass's digest.
func (o *outcome) checkPass(env *runEnv, in inputs, p pass, want, what string) string {
	rc, err := checkReport(p.report)
	if err != nil {
		fmt.Fprintf(env.out, "check %s: %v\n", what, err)
		o.fail(in.units())
		return ""
	}
	if failed, problem := verify(rc, want, len(in.cfgs), in.units()); problem != "" {
		fmt.Fprintf(env.out, "check %s: %s\n", what, problem)
		o.fail(failed)
	}
	return rc.digest
}

// runCold is signoff-cold: full sign-off passes, each into an empty result
// cache, with as many engine workers as CPUs.
func runCold(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	in := makeInputs(env.seed, env.size)
	setups, err := timedSetups(env, func(bool) error { return coldSetup(ctx, env, in) })
	if err != nil {
		return nil, err
	}
	var passes []pass
	var want string
	for start := time.Now(); len(passes) == 0 || time.Since(start) < env.window; {
		cache, err := freshCache(env)
		if err != nil {
			return nil, err
		}
		p, err := signoffPass(ctx, in, cache)
		os.RemoveAll(cache.Dir())
		o.attempted += in.units()
		if err != nil {
			fmt.Fprintf(env.out, "check signoff-cold pass %d: %v\n", len(passes)+1, err)
			o.fail(in.units())
			break
		}
		if p.stats.Ran != in.units() {
			fmt.Fprintf(env.out, "check signoff-cold pass %d: %d of %d units simulated\n", len(passes)+1, p.stats.Ran, in.units())
			o.fail(in.units() - p.stats.Ran)
		}
		fmt.Fprintf(env.out, "pass %d: %.3f s, %d units ran\n", len(passes)+1, p.elapsed.Seconds(), p.stats.Ran)
		digest := o.checkPass(env, in, p, want, fmt.Sprintf("signoff-cold pass %d", len(passes)+1))
		if want == "" {
			want = digest
			rc, _ := checkReport(p.report)
			printLedger(env.out, env.workload, env.seed, "matrix", rc)
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 || passes[0].report == nil {
		return o, fmt.Errorf("no sign-off pass completed")
	}
	o.setBatchMetrics(in, passes, setups, false)
	return o, nil
}

// coldSetup prepares signoff-cold: the inputs are linted and the first
// configuration is signed off into a scratch cache, so code paths and the
// heap are warm before the first timed pass.
func coldSetup(ctx context.Context, env *runEnv, in inputs) error {
	if rep := regress.LintConfigs(in.cfgs, in.seeds); rep.HasErrors() {
		return fmt.Errorf("matrix fails lint: %s", rep.Summary())
	}
	cache, err := freshCache(env)
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache.Dir())
	warm := inputs{cfgs: in.cfgs[:1], tests: in.tests, seeds: in.seeds}
	_, err = signoffPass(ctx, warm, cache)
	return err
}

// runWarm is signoff-warm: full sign-off passes served from a cache that
// set-up filled with a cold pass of the same matrix.
func runWarm(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	in := makeInputs(env.seed, env.size)
	cache, want, setups, err := warmSetup(ctx, env, in)
	if err != nil {
		return nil, err
	}
	var passes []pass
	for start := time.Now(); len(passes) == 0 || time.Since(start) < env.window; {
		p, err := signoffPass(ctx, in, cache)
		o.attempted += in.units()
		if err != nil {
			fmt.Fprintf(env.out, "check signoff-warm pass %d: %v\n", len(passes)+1, err)
			o.fail(in.units())
			break
		}
		if p.stats.Ran != 0 {
			fmt.Fprintf(env.out, "check signoff-warm pass %d: %d units simulated, want 0\n", len(passes)+1, p.stats.Ran)
			o.fail(p.stats.Ran)
		}
		fmt.Fprintf(env.out, "pass %d: %.3f s, %d units served\n", len(passes)+1, p.elapsed.Seconds(), p.stats.Cached)
		o.checkPass(env, in, p, want, fmt.Sprintf("signoff-warm pass %d", len(passes)+1))
		passes = append(passes, p)
	}
	if len(passes) == 0 || passes[0].report == nil {
		return o, fmt.Errorf("no sign-off pass completed")
	}
	rc, _ := checkReport(passes[0].report)
	printLedger(env.out, env.workload, env.seed, "matrix", rc)
	o.setBatchMetrics(in, passes, setups, true)
	return o, nil
}

// warmSetup fills a result cache with a cold pass of in, env.size.setups
// times into fresh caches, and keeps the last. It returns the cache, the
// fill's report digest (the reference every warm pass must match) and the
// set-up durations.
func warmSetup(ctx context.Context, env *runEnv, in inputs) (*regress.Cache, string, []time.Duration, error) {
	var cache *regress.Cache
	var want string
	setups, err := timedSetups(env, func(last bool) error {
		c, err := freshCache(env)
		if err != nil {
			return err
		}
		p, err := signoffPass(ctx, in, c)
		if err != nil {
			return err
		}
		if !last {
			os.RemoveAll(c.Dir())
		}
		cache = c
		rc, err := checkReport(p.report)
		if err != nil {
			return err
		}
		if _, problem := verify(rc, want, len(in.cfgs), in.units()); problem != "" {
			return fmt.Errorf("cache fill: %s", problem)
		}
		want = rc.digest
		return nil
	})
	return cache, want, setups, err
}

// setBatchMetrics fills the end-to-end metrics of a batch workload. A "job"
// of a batch workload is one configuration's sign-off within a pass; on
// signoff-warm, where no unit runs, sim_cycles_per_s counts the recorded
// cycles of the served units.
func (o *outcome) setBatchMetrics(in inputs, passes []pass, setups []time.Duration, served bool) {
	var el []time.Duration
	var verdicts []float64
	for _, p := range passes {
		el = append(el, p.elapsed)
		for _, v := range p.verdicts {
			verdicts = append(verdicts, float64(v)/float64(time.Millisecond))
		}
	}
	s := median(seconds(el))
	cycles := passes[0].stats.Cycles
	if served {
		rc, _ := checkReport(passes[0].report)
		cycles = rc.cycles
	}
	o.metrics["signoff_s"] = s
	o.metrics["units_per_s"] = float64(in.units()) / s
	o.metrics["sim_cycles_per_s"] = float64(cycles) / s
	o.metrics["job_p50_ms"] = quantile(verdicts, 0.5)
	o.metrics["job_p90_ms"] = quantile(verdicts, 0.9)
	o.metrics["jobs_per_s"] = float64(len(in.cfgs)) / s
	o.metrics["setup_s"] = median(seconds(setups))
	o.metrics["max_rss_mb"] = maxRSSMB()
}
