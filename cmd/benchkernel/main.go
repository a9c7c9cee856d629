// Command benchkernel measures the compiled bytecode backend against the
// levelized scheduler on the E5 reference run and emits the comparison as
// JSON (checked in and archived by CI as BENCH_kernel.json): RTL-view
// throughput in simulated cycles per second for both backends, the speedup
// of each over the PR 5 recorded levelized baseline, delta iterations per
// cycle, and the size of the fused program (processes absorbed, bytecode
// instructions emitted).
//
// Usage:
//
//	benchkernel                              # JSON on stdout
//	benchkernel -out BENCH_kernel.json -repeat 7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"crve/internal/arb"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
	"crve/internal/testcases"
)

// baselinePR5 is the levelized BenchmarkE5RTL figure recorded when the
// levelized scheduler landed (PR 5), the reference point the compiled
// backend's acceptance speedup is measured against.
const baselinePR5 = 79388.0

// backend is one measured simulation backend.
type backend struct {
	// CyclesPerSec is RTL-view throughput: simulated cycles divided by
	// wall time, median of -repeat timed samples (each a half-second batch
	// of runs).
	CyclesPerSec float64 `json:"cycles_per_s"`
	// SpeedupVsPR5 is CyclesPerSec over the PR 5 levelized baseline.
	SpeedupVsPR5 float64 `json:"speedup_vs_pr5_baseline"`
	// DeltasPerCycle is delta iterations per simulated cycle — both
	// backends retire the legacy convergence loop, so this stays low.
	DeltasPerCycle float64 `json:"deltas_per_cycle"`
	// FusedProcs and FusedOps size the fused bytecode program: processes
	// absorbed into flat segments and total instructions emitted (zero
	// under the levelized backend).
	FusedProcs int `json:"fused_procs,omitempty"`
	FusedOps   int `json:"fused_ops,omitempty"`
	// CompiledEvals and ClosureEvals split process evaluations by dispatch
	// mechanism over the profiled run.
	CompiledEvals uint64 `json:"compiled_evals,omitempty"`
	ClosureEvals  uint64 `json:"closure_evals,omitempty"`
}

type report struct {
	Config string `json:"config"`
	Test   string `json:"test"`
	Seed   int64  `json:"seed"`
	Cycles uint64 `json:"cycles_per_run"`
	// BaselinePR5 is the recorded levelized figure both speedups divide by.
	BaselinePR5 float64 `json:"pr5_baseline_cycles_per_s"`
	Levelized   backend `json:"levelized"`
	Compiled    backend `json:"compiled"`
	// CompiledSpeedup is compiled over levelized as measured in this run
	// (same machine, same repetitions).
	CompiledSpeedup float64 `json:"compiled_speedup"`
}

func refCfg() nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 3, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}.WithDefaults()
}

func main() {
	var (
		out    = flag.String("out", "", "write JSON here instead of stdout")
		repeat = flag.Int("repeat", 7, "timing repetitions (median of N)")
		seed   = flag.Int64("seed", 7, "test seed")
	)
	flag.Parse()
	if err := run(*out, *repeat, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchkernel:", err)
		os.Exit(1)
	}
}

// sampleWindow is how long one timed sample loops the run under test. A
// single E5 run lasts a couple of milliseconds — far too short to time on
// its own — so each sample batches runs until the window elapses, the same
// amortisation go test -bench applies.
const sampleWindow = 500 * time.Millisecond

// medianRate takes n timed samples of f (each a batch of runs filling
// sampleWindow, yielding runs-per-second) and returns the median — the
// robust single figure on shared machines where best-of-N can catch one
// lucky scheduling window and the mean is dragged by one unlucky one.
func medianRate(n int, f func() error) (float64, error) {
	rates := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runs := 0
		start := time.Now()
		for time.Since(start) < sampleWindow {
			if err := f(); err != nil {
				return 0, err
			}
			runs++
		}
		rates = append(rates, float64(runs)/time.Since(start).Seconds())
	}
	sort.Float64s(rates)
	return rates[len(rates)/2], nil
}

// measure profiles and times one backend on the E5 reference run.
func measure(cfg nodespec.Config, tc core.Test, seed int64, k sim.Kernel, repeat int) (backend, uint64, error) {
	var be backend

	// One profiled run for the kernel statistics; timing sampling has a
	// cost, so the throughput runs below are taken without it.
	prof, err := core.RunTest(cfg, core.RTLView, tc, seed, core.RunOptions{Kernel: k, KernelStats: true})
	if err != nil {
		return be, 0, err
	}
	ks := prof.Kernel
	if k == sim.KernelCompiled && ks.FusedProcs == 0 {
		return be, 0, fmt.Errorf("compiled backend fused no processes")
	}
	be.DeltasPerCycle = float64(ks.Deltas) / float64(ks.Cycles)
	be.FusedProcs = ks.FusedProcs
	be.FusedOps = ks.FusedOps
	be.CompiledEvals = ks.CompiledEvals
	be.ClosureEvals = ks.ClosureEvals

	rate, err := medianRate(repeat, func() error {
		_, err := core.RunTest(cfg, core.RTLView, tc, seed, core.RunOptions{Kernel: k})
		return err
	})
	if err != nil {
		return be, 0, err
	}
	be.CyclesPerSec = rate * float64(prof.Cycles)
	be.SpeedupVsPR5 = be.CyclesPerSec / baselinePR5
	return be, prof.Cycles, nil
}

func run(out string, repeat int, seed int64) error {
	cfg := refCfg()
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		return err
	}

	rep := report{Config: cfg.Name, Test: tc.Name, Seed: seed, BaselinePR5: baselinePR5}
	if rep.Levelized, rep.Cycles, err = measure(cfg, tc, seed, sim.KernelLevelized, repeat); err != nil {
		return err
	}
	if rep.Compiled, _, err = measure(cfg, tc, seed, sim.KernelCompiled, repeat); err != nil {
		return err
	}
	rep.CompiledSpeedup = rep.Compiled.CyclesPerSec / rep.Levelized.CyclesPerSec

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
