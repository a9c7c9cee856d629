package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/experiments"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/testcases"
	"crve/internal/tlm"
)

// The layer probes time what the replay cannot split out of one public
// call, over a sample of the workload's own unit mix: elaboration and
// traffic generation, the marginal cost of the waveform recorder and of the
// STBA observer (one view with its tap on and off), and the kernel tiers
// (compiled against levelized, sixteen lanes against sixteen scalar pairs).
// They also run the paper's speed shapes on E5's and E7's inputs. Probes run
// serially, one call at a time, so their timings do not contend.

// sampleUnits draws n units from in, every configuration in turn.
func sampleUnits(in inputs, n int, seed int64) []unit {
	rng := rand.New(rand.NewSource(seed ^ 0x1a7e5))
	units := make([]unit, n)
	for i := range units {
		units[i] = unit{
			idx:  i,
			cfg:  in.cfgs[i%len(in.cfgs)].WithDefaults(),
			test: in.tests[rng.Intn(len(in.tests))],
			seed: in.seeds[rng.Intn(len(in.seeds))],
		}
	}
	return units
}

// timed runs fn inside a span and returns its duration.
func timed(tr *tracer, name, key string, fn func() (uint64, error)) (time.Duration, error) {
	id := tr.begin(name, key, 0)
	start := time.Now()
	count, err := fn()
	d := time.Since(start)
	tr.end(id, count)
	return d, err
}

// layerProbe runs every probe and sets their metrics.
func (o *outcome) layerProbe(ctx context.Context, env *runEnv, in inputs, tr *tracer) error {
	units := sampleUnits(in, env.size.probeUnits, env.seed)
	for _, u := range units {
		if err := probeElab(tr, u); err != nil {
			return err
		}
	}
	if err := o.probeTaps(ctx, tr, units); err != nil {
		return err
	}
	if err := o.probeKernels(ctx, env, tr, units); err != nil {
		return err
	}
	if err := o.probeLanes(ctx, env, in, tr); err != nil {
		return err
	}
	return o.probeShapes(env, tr)
}

// probeElab times both views' elaboration (core.BuildDUT on a fresh
// simulator) and the generation of every initiator's traffic.
func probeElab(tr *tracer, u unit) error {
	for _, v := range []struct {
		name string
		view core.View
	}{{"rtl.elab", core.RTLView}, {"bca.elab", core.BCAView}} {
		sm := sim.New()
		if _, err := timed(tr, v.name, u.key(), func() (uint64, error) {
			_, err := core.BuildDUT(sim.Root(sm), u.cfg, v.view, bca.Bugs{})
			return 0, err
		}); err != nil {
			return fmt.Errorf("%s %s: %w", v.name, u.key(), err)
		}
	}
	_, err := timed(tr, "catg.genops", u.key(), func() (uint64, error) {
		for i := 0; i < u.cfg.NumInit; i++ {
			catg.GenerateOps(u.cfg, trafficFor(u.test, u.cfg, i), i, u.seed)
		}
		return 0, nil
	})
	return err
}

// trafficFor resolves a test's traffic for one initiator, as the bench does.
func trafficFor(t core.Test, cfg nodespec.Config, i int) catg.TrafficConfig {
	if t.TrafficFor != nil {
		return t.TrafficFor(cfg, i)
	}
	return t.Traffic
}

// timedPair runs a and b inside spans named na and nb, a first for even i
// and b first for odd i, and returns both durations.
func timedPair(tr *tracer, i int, key, na string, a func() (uint64, error), nb string, b func() (uint64, error)) (da, db time.Duration, err error) {
	first := func() (err error) { da, err = timed(tr, na, key, a); return err }
	second := func() (err error) { db, err = timed(tr, nb, key, b); return err }
	if i%2 == 1 {
		first, second = second, first
	}
	if err = first(); err == nil {
		err = second()
	}
	return da, db, err
}

// viewRun returns a call that runs one view of u with opt and keeps its
// result in *res.
func viewRun(ctx context.Context, u unit, view core.View, opt func() core.RunOptions, res **core.RunResult) func() (uint64, error) {
	return func() (uint64, error) {
		r, err := core.RunTestCtx(ctx, u.cfg, view, u.test, u.seed, opt())
		if err != nil {
			return 0, err
		}
		*res = r
		return r.Cycles, nil
	}
}

// probeTaps times the RTL view with and without RecordWave and the BCA view
// with and without AlignWith, alternating which runs first.
func (o *outcome) probeTaps(ctx context.Context, tr *tracer, units []unit) error {
	var rec, plainRTL, obs, plainBCA time.Duration
	var rtlCycles, bcaCycles, crwBytes float64
	none := func() core.RunOptions { return core.RunOptions{} }
	for i, u := range units {
		var recorded, observed, plain *core.RunResult
		dr, dp, err := timedPair(tr, i, u.key(),
			"vcd.rtl_recorded", viewRun(ctx, u, core.RTLView, func() core.RunOptions { return core.RunOptions{RecordWave: true} }, &recorded),
			"vcd.rtl_plain", viewRun(ctx, u, core.RTLView, none, &plain))
		if err != nil {
			return fmt.Errorf("tap probe %s: %w", u.key(), err)
		}
		do, dq, err := timedPair(tr, i, u.key(),
			"stba.bca_observed", viewRun(ctx, u, core.BCAView, func() core.RunOptions { return core.RunOptions{AlignWith: recorded.Wave} }, &observed),
			"stba.bca_plain", viewRun(ctx, u, core.BCAView, none, &plain))
		if err != nil {
			return fmt.Errorf("tap probe %s: %w", u.key(), err)
		}
		rec, plainRTL, obs, plainBCA = rec+dr, plainRTL+dp, obs+do, plainBCA+dq
		rtlCycles += float64(recorded.Cycles)
		bcaCycles += float64(observed.Cycles)
		crwBytes += float64(len(recorded.Wave.Encode()))
	}
	o.metrics["vcd.record_us_per_kcycle"] = float64(rec-plainRTL) / rtlCycles
	o.metrics["vcd.crw_bytes_per_kcycle"] = crwBytes / rtlCycles * 1000
	o.metrics["stba.observe_us_per_kcycle"] = float64(obs-plainBCA) / bcaCycles
	return nil
}

// probeKernels runs each sampled unit's pair on the default levelized
// kernel and on the compiled one, alternating which runs first.
// sim.compiled_over_levelized is compiled throughput over levelized
// throughput (base: levelized).
func (o *outcome) probeKernels(ctx context.Context, env *runEnv, tr *tracer, units []unit) error {
	var lev, comp time.Duration
	for i, u := range units {
		var cycles [2]uint64
		run := func(k sim.Kernel) func() (uint64, error) {
			return func() (uint64, error) {
				p, err := core.RunPairCtx(ctx, u.cfg, u.test, u.seed, core.RunOptions{Kernel: k})
				if err != nil {
					return 0, err
				}
				cycles[k] = p.RTL.Cycles + p.BCA.Cycles
				return cycles[k], nil
			}
		}
		dl, dc, err := timedPair(tr, i, u.key(),
			"sim.levelized_pair", run(sim.KernelLevelized), "sim.compiled_pair", run(sim.KernelCompiled))
		if err != nil {
			return fmt.Errorf("kernel probe %s: %w", u.key(), err)
		}
		if cycles[sim.KernelLevelized] != cycles[sim.KernelCompiled] {
			fmt.Fprintf(env.out, "check kernel tiers %s: compiled ran %d cycles, levelized %d\n",
				u.key(), cycles[sim.KernelCompiled], cycles[sim.KernelLevelized])
			o.fail(1)
		}
		lev, comp = lev+dl, comp+dc
	}
	o.metrics["sim.compiled_over_levelized"] = float64(lev) / float64(comp)
	return nil
}

// probeLanes runs sixteen seeds of a few sampled (config, test) pairs as one
// lane-parallel pair run and as sixteen scalar pair runs, alternating which
// runs first.
// sim.lanes16_over_scalar is lane throughput over scalar throughput (base:
// scalar). The sixteen seeds start with the workload's own.
func (o *outcome) probeLanes(ctx context.Context, env *runEnv, in inputs, tr *tracer) error {
	seeds := testSeeds(env.seed, 16)
	rng := rand.New(rand.NewSource(env.seed ^ 0x1a9e5))
	var lanes, scalar time.Duration
	for g := 0; g < env.size.laneGroups; g++ {
		u := unit{cfg: in.cfgs[(g*7)%len(in.cfgs)].WithDefaults(), test: in.tests[rng.Intn(len(in.tests))]}
		key := fmt.Sprintf("%s/%s/x16", u.cfg.Name, u.test.Name)
		var lc, sc uint64
		dl, ds, err := timedPair(tr, g, key, "sim.lanes16_pairs", func() (uint64, error) {
			prs, err := core.RunPairLanes(ctx, u.cfg, u.test, seeds, core.RunOptions{})
			for _, p := range prs {
				lc += p.RTL.Cycles + p.BCA.Cycles
			}
			return lc, err
		}, "sim.scalar16_pairs", func() (uint64, error) {
			for _, s := range seeds {
				p, err := core.RunPairCtx(ctx, u.cfg, u.test, s, core.RunOptions{})
				if err != nil {
					return sc, err
				}
				sc += p.RTL.Cycles + p.BCA.Cycles
			}
			return sc, nil
		})
		if err != nil {
			return fmt.Errorf("lane probe %s: %w", key, err)
		}
		if lc != sc {
			fmt.Fprintf(env.out, "check lanes %s: lanes ran %d cycles, scalar %d\n", key, lc, sc)
			o.fail(1)
		}
		lanes, scalar = lanes+dl, scalar+ds
	}
	o.metrics["sim.lanes16_over_scalar"] = float64(scalar) / float64(lanes)
	return nil
}

// paperInput is E5's and E7's node and test: the reference configuration
// under LRU arbitration without the programming port, and back_to_back
// traffic of ops operations per initiator.
func paperInput(ops int) (nodespec.Config, core.Test, error) {
	cfg := experiments.RefConfig()
	cfg.ReqArb = arb.LRU
	cfg.ProgPort = false
	tc, err := testcases.ByName("back_to_back")
	tc.Traffic.Ops = ops
	return cfg, tc, err
}

// probeShapes measures the paper's speed shapes: E5's RTL view and wrapped
// BCA view in the common bench, the standalone BCA engine on E5's input, and
// E7's ports-approach bench. Each is the median of size.shapeRepeats
// measurements, each at least 50 ms long.
func (o *outcome) probeShapes(env *runEnv, tr *tracer) error {
	e5, tc5, err := paperInput(400)
	if err != nil {
		return err
	}
	e7, tc7, err := paperInput(300)
	if err != nil {
		return err
	}
	shapes := []struct {
		metric string
		run    func() (uint64, error)
	}{
		{"e5.rtl_kcycles_per_s", func() (uint64, error) {
			r, err := core.RunTest(e5, core.RTLView, tc5, 11, core.RunOptions{})
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		}},
		{"e5.bca_wrapped_kcycles_per_s", func() (uint64, error) {
			r, err := core.RunTest(e5, core.BCAView, tc5, 11, core.RunOptions{})
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		}},
		{"bca.standalone_kcycles_per_s", func() (uint64, error) {
			r, err := bca.RunStandalone(bca.StandaloneConfig{Node: e5, Seed: 11, OpsPerInit: 400, MemLatency: 1})
			return r.Cycles, err
		}},
		{"tlm.ports_kcycles_per_s", func() (uint64, error) {
			r, err := tlm.RunTest(e7, tc7.Traffic, tc7.Target, 7, bca.Bugs{})
			if err != nil {
				return 0, err
			}
			return r.Cycles, nil
		}},
	}
	// Repetitions go round the shapes, so a drift in machine speed touches
	// every shape alike and their ratios hold.
	rates := make([][]float64, len(shapes))
	for i := 0; i < env.size.shapeRepeats; i++ {
		for k, sh := range shapes {
			var cycles uint64
			d, err := timed(tr, sh.metric, "", func() (uint64, error) {
				for start := time.Now(); cycles == 0 || time.Since(start) < 50*time.Millisecond; {
					c, err := sh.run()
					if err != nil {
						return cycles, err
					}
					cycles += c
				}
				return cycles, nil
			})
			if err != nil {
				return fmt.Errorf("%s: %w", sh.metric, err)
			}
			rates[k] = append(rates[k], float64(cycles)/d.Seconds()/1000)
		}
	}
	for k, sh := range shapes {
		o.metrics[sh.metric] = median(rates[k])
	}
	return nil
}
