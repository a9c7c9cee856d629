// Command regress is the batch regression tool of the flow (the paper's GUI
// tool, CLI-ified): it loads node configurations from parameter files (or
// generates the standard matrix), runs the generic test suite on both the
// RTL and the BCA view with the same seeds, and emits verification, coverage
// and alignment reports. The bus-accurate comparison streams online — no VCD
// is written or parsed; -wave keeps compact binary waveform recordings
// (.crw) as artifacts.
//
// Usage:
//
//	regress -matrix                    # run the >=36-configuration matrix
//	regress -config ./configs          # run every .cfg file in a directory
//	regress -config node.cfg           # ...or one parameter file
//	regress -config ./configs -tests basic_write_read,error_paths -seeds 1,2,3
//	regress -matrix -quick -out ./out  # fast slice, write reports
//	regress -matrix -quick -out ./out -wave  # ...plus .crw waveform recordings
//	regress -matrix -j 8 -cache ./rc   # 8 workers, incremental result cache
//	regress -emit ./configs            # materialise the matrix as .cfg files
//	regress -config ./configs -close   # close coverage holes with synthesized tests
//	regress -config node.cfg -close -plan  # report holes and planned units, run none
//	regress -matrix -quick -kernelstats # also print the kernel profile per config/view
//	regress -config ./configs -fabric topo.fab  # also gate on a whole-fabric check
//
// The report output is byte-identical at any -j width: work units fan out
// across the pool but merge deterministically. With -cache, a re-run serves
// unchanged (config, test, seed) units from disk and re-simulates only what
// changed; the trailing "work units" line reports the ran/cached split.
//
// With -close, any configuration the suite leaves below 100 % functional
// coverage enters the coverage-closure loop: the engine maps each hole back
// to the traffic dimensions that can reach it, synthesizes biased follow-up
// work units and re-runs them through the same pool and cache until coverage
// is full or the -max-iters/-budget limits run out. The table, the "work
// units" line and the -json report count what closure bought; the
// per-iteration closure report prints per configuration (and lands in
// OUT/<config>/closure.json with -out); a configuration whose closure does
// not converge fails the run. -plan stops short of the loop: it prints each
// configuration's holes and the units the first iteration would run.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"crve/internal/closure"
	"crve/internal/core"
	"crve/internal/lint"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/testcases"
)

// options collects the parsed command line.
type options struct {
	configPath  string
	matrix      bool
	quick       bool
	testsArg    string
	seedsArg    string
	outDir      string
	emitDir     string
	verbose     bool
	nolint      bool
	jobs        int
	cacheDir    string
	close       bool
	plan        bool
	maxIters    int
	budget      uint64
	kernelstats bool
	fabricArg   string
	wave        bool
	jsonOut     bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, runs the regression and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("regress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.configPath, "config", "", "a .cfg parameter file or a directory of them")
	fs.BoolVar(&o.matrix, "matrix", false, "use the standard >=36-configuration matrix")
	fs.BoolVar(&o.quick, "quick", false, "with -matrix: run only the first 6 configurations")
	fs.StringVar(&o.testsArg, "tests", "", "comma-separated test names (default: all 12)")
	fs.StringVar(&o.seedsArg, "seeds", "1", "comma-separated seeds (the first also salts closure seeds)")
	fs.StringVar(&o.outDir, "out", "", "directory for reports and waveform recordings")
	fs.StringVar(&o.emitDir, "emit", "", "write the standard matrix as .cfg files and exit")
	fs.BoolVar(&o.verbose, "v", false, "log each run")
	fs.BoolVar(&o.nolint, "nolint", false, "skip the static-analysis gate and run even with lint errors")
	fs.IntVar(&o.jobs, "j", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.StringVar(&o.cacheDir, "cache", "", "incremental result cache directory (re-runs only what changed)")
	fs.BoolVar(&o.close, "close", false, "run the coverage-closure loop on configurations the suite leaves below 100% functional coverage")
	fs.BoolVar(&o.plan, "plan", false, "with -close: report the holes and the first iteration's planned units instead of running them")
	fs.IntVar(&o.maxIters, "max-iters", 8, "with -close: maximum closure iterations per configuration")
	fs.Uint64Var(&o.budget, "budget", 0, "with -close: closure cycle budget per configuration, both views (0 = unlimited)")
	fs.BoolVar(&o.kernelstats, "kernelstats", false, "collect and print the simulation-kernel profile (deltas/cycle, settle depth, hottest processes)")
	fs.StringVar(&o.fabricArg, "fabric", "", "comma-separated topology files (*.fab) the matrix must compose into; checked by the lint gate")
	fs.BoolVar(&o.wave, "wave", false, "keep compact binary waveform recordings per run (written as .crw with -out)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the canonical JSON report on stdout (human summary moves to stderr) — byte-identical to the regressd report endpoint")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.execute(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "regress:", err)
		return 1
	}
	return 0
}

// execute runs what the options ask for: it emits the matrix, or loads,
// lints and runs the configurations and prints their reports.
func (o options) execute(stdout, stderr io.Writer) error {
	if o.emitDir != "" {
		if err := os.MkdirAll(o.emitDir, 0o755); err != nil {
			return err
		}
		cfgs := regress.StandardMatrix()
		for _, cfg := range cfgs {
			path := filepath.Join(o.emitDir, cfg.Name+".cfg")
			if err := os.WriteFile(path, []byte(regress.FormatConfig(cfg)), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d configuration files to %s\n", len(cfgs), o.emitDir)
		return nil
	}
	if o.plan && !o.close {
		return fmt.Errorf("-plan needs -close")
	}

	var cfgs []nodespec.Config
	switch {
	case o.configPath != "":
		var err error
		cfgs, err = regress.LoadConfigs(o.configPath)
		if err != nil {
			return err
		}
	case o.matrix:
		cfgs = regress.StandardMatrix()
		if o.quick {
			cfgs = cfgs[:6]
		}
	default:
		return fmt.Errorf("pass -config FILE|DIR or -matrix (see -h)")
	}

	var tests []core.Test
	if o.testsArg == "" {
		tests = testcases.All()
	} else {
		for _, name := range strings.Split(o.testsArg, ",") {
			tc, err := testcases.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			tests = append(tests, tc)
		}
	}
	var seeds []int64
	for _, s := range strings.Split(o.seedsArg, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", s)
		}
		seeds = append(seeds, v)
	}

	// Static-analysis gate: lint the whole set (with file:line positions
	// when the configs came from files) before any cycle runs.
	var rep *lint.Report
	if o.configPath != "" {
		srcs, err := regress.LoadSources(o.configPath)
		if err != nil {
			return err
		}
		rep = lint.CheckSet(srcs, seeds)
	} else {
		rep = regress.LintConfigs(cfgs, seeds)
	}
	if o.fabricArg != "" {
		for _, path := range strings.Split(o.fabricArg, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			frep, err := regress.CheckFabric(path)
			if err != nil {
				return err
			}
			rep.Diags = append(rep.Diags, frep.Diags...)
		}
		rep.Sort()
	}
	for _, d := range rep.Diags {
		fmt.Fprintln(stderr, "lint:", d)
	}
	if rep.HasErrors() {
		if !o.nolint {
			return fmt.Errorf("%s (run crvelint for details, or pass -nolint to override)", rep.Summary())
		}
		fmt.Fprintf(stderr, "lint: %s — continuing because -nolint is set\n", rep.Summary())
	}

	// With -json the canonical report owns stdout; everything human-facing
	// (tables, logs, summaries) moves to stderr so piping stays clean.
	hout := stdout
	if o.jsonOut {
		hout = stderr
	}

	opt := closure.Options{
		Options: regress.Options{
			Tests: tests, Seeds: seeds, NoLint: true, Workers: o.jobs, // linted above
			KernelStats: o.kernelstats, RecordWave: o.wave,
		},
		Close: o.close && !o.plan, MaxIters: o.maxIters, Budget: o.budget,
	}
	if o.verbose {
		opt.Log = hout
	}
	if o.cacheDir != "" {
		cache, err := regress.OpenCache(o.cacheDir)
		if err != nil {
			return err
		}
		opt.Cache = cache
	}
	res, err := closure.Run(context.Background(), cfgs, opt)
	if err != nil {
		return err
	}
	results, stats := res.Results, res.Stats
	fmt.Fprint(hout, regress.MatrixReport(results))
	signed := 0
	for _, cr := range results {
		if cr.SignedOff() {
			signed++
		}
	}
	fmt.Fprintf(hout, "signed off: %d/%d configurations\n", signed, len(results))
	fmt.Fprintf(hout, "work units: %s\n", stats)
	// Wall-clock and throughput come from the engine's Stats — computed
	// once, read everywhere — and go to stderr so report output stays
	// deterministic (byte-identical across runs and -j widths).
	fmt.Fprintf(stderr, "elapsed %s, %d cycles simulated, %.0f cycles/s\n",
		stats.Duration.Round(time.Millisecond), stats.Cycles, stats.Throughput())
	if o.kernelstats {
		fmt.Fprint(hout, regress.KernelReport(results))
	}

	if o.plan {
		printPlan(hout, results)
	}
	var notConverged int
	if opt.Close {
		var cran, ccached int
		for _, traj := range res.Trajectories {
			closure.Text(hout, traj)
			cran += traj.UnitsRun
			ccached += traj.UnitsCached
			if !traj.Converged {
				notConverged++
			}
			if o.outDir != "" {
				var buf bytes.Buffer
				if err := closure.JSON(&buf, traj); err != nil {
					return err
				}
				dir := filepath.Join(o.outDir, traj.Config)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(dir, "closure.json"), buf.Bytes(), 0o644); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(hout, "closure: %d configuration(s) closed, %d not converged, units %d ran, %d cached\n",
			len(res.Trajectories)-notConverged, notConverged, cran, ccached)
	}

	if o.jsonOut {
		if err := regress.WriteJSON(stdout, regress.BuildReport(results, stats)); err != nil {
			return err
		}
	}

	if o.outDir != "" {
		if err := regress.WriteReports(o.outDir, results); err != nil {
			return err
		}
		fmt.Fprintf(hout, "reports written to %s\n", o.outDir)
	}
	if signed != len(results) {
		return fmt.Errorf("%d configuration(s) failed sign-off", len(results)-signed)
	}
	if notConverged > 0 {
		return fmt.Errorf("coverage closure did not converge on %d configuration(s)", notConverged)
	}
	return nil
}

// printPlan reports each configuration's holes and the units the first
// closure iteration would synthesize for them, without simulating any —
// the dry "what would closure do" report of -close -plan.
func printPlan(w io.Writer, results []*regress.ConfigResult) {
	for _, cr := range results {
		holes := cr.SuiteCoverage.Holes()
		fmt.Fprintf(w, "%s: %.1f%% functional coverage, %d hole(s)\n",
			cr.Cfg.Name, cr.SuiteCoverage.Percent(), len(holes))
		if len(holes) == 0 {
			continue
		}
		for _, h := range holes {
			fmt.Fprintf(w, "  hole %s\n", h)
		}
		for _, u := range closure.Plan(cr.Cfg, holes, 1) {
			var hs []string
			for _, h := range u.Holes {
				hs = append(hs, h.String())
			}
			fmt.Fprintf(w, "  plan %s -> [%s]\n", u.Test.Name, strings.Join(hs, " "))
		}
	}
}
