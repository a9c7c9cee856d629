// Command regress is the batch regression tool of the flow (the paper's GUI
// tool, CLI-ified): it loads node configurations from parameter files (or
// generates the standard matrix), runs the generic test suite on both the
// RTL and the BCA view with the same seeds, and emits verification, coverage
// and alignment reports. The bus-accurate comparison streams online — no VCD
// is written or parsed on the default path; -wave keeps compact binary
// waveform recordings (.crw) as artifacts, and -legacy-align restores the
// write-two-VCDs/parse/Compare round trip for ablation.
//
// Usage:
//
//	regress -matrix                    # run the >=36-configuration matrix
//	regress -config ./configs          # run every .cfg file in a directory
//	regress -config ./configs -tests basic_write_read,error_paths -seeds 1,2,3
//	regress -matrix -quick -out ./out  # fast slice, write reports
//	regress -matrix -quick -out ./out -wave  # ...plus .crw waveform recordings
//	regress -matrix -j 8 -cache ./rc   # 8 workers, incremental result cache
//	regress -emit ./configs            # materialise the matrix as .cfg files
//	regress -config ./configs -close   # close coverage holes with synthesized tests
//	regress -matrix -quick -kernelstats # also print the kernel profile per config/view
//	regress -config ./configs -fabric topo.fab  # also gate on a whole-fabric check
//	regress -matrix -quick -legacy-align  # alignment via the legacy VCD round trip
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
// is full or the -max-iters/-budget limits run out. The per-iteration
// closure report prints per configuration (and lands in OUT/<config>/
// closure.json with -out); a configuration whose closure does not converge
// fails the run.
package main

import (
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
	configDir   string
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
	maxIters    int
	budget      uint64
	kernelstats bool
	fabricArg   string
	wave        bool
	legacyAlign bool
	jsonOut     bool
}

func main() {
	var o options
	flag.StringVar(&o.configDir, "config", "", "directory of .cfg parameter files")
	flag.BoolVar(&o.matrix, "matrix", false, "use the standard >=36-configuration matrix")
	flag.BoolVar(&o.quick, "quick", false, "with -matrix: run only the first 6 configurations")
	flag.StringVar(&o.testsArg, "tests", "", "comma-separated test names (default: all 12)")
	flag.StringVar(&o.seedsArg, "seeds", "1", "comma-separated seeds")
	flag.StringVar(&o.outDir, "out", "", "directory for reports and VCD dumps")
	flag.StringVar(&o.emitDir, "emit", "", "write the standard matrix as .cfg files and exit")
	flag.BoolVar(&o.verbose, "v", false, "log each run")
	flag.BoolVar(&o.nolint, "nolint", false, "skip the static-analysis gate and run even with lint errors")
	flag.IntVar(&o.jobs, "j", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.StringVar(&o.cacheDir, "cache", "", "incremental result cache directory (re-runs only what changed)")
	flag.BoolVar(&o.close, "close", false, "run the coverage-closure loop on configurations the suite leaves below 100% functional coverage")
	flag.IntVar(&o.maxIters, "max-iters", 8, "with -close: maximum closure iterations per configuration")
	flag.Uint64Var(&o.budget, "budget", 0, "with -close: closure cycle budget per configuration, both views (0 = unlimited)")
	flag.BoolVar(&o.kernelstats, "kernelstats", false, "collect and print the simulation-kernel profile (deltas/cycle, settle depth, hottest processes)")
	flag.StringVar(&o.fabricArg, "fabric", "", "comma-separated topology files (*.fab) the matrix must compose into; checked by the lint gate")
	flag.BoolVar(&o.wave, "wave", false, "keep compact binary waveform recordings per run (written as .crw with -out)")
	flag.BoolVar(&o.legacyAlign, "legacy-align", false, "compute alignment via the legacy VCD write/parse/Compare round trip (ablation baseline)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the canonical JSON report on stdout (human summary moves to stderr) — byte-identical to the regressd report endpoint")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "regress:", err)
		os.Exit(1)
	}
}

func run(o options) error {
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
		fmt.Printf("wrote %d configuration files to %s\n", len(cfgs), o.emitDir)
		return nil
	}

	var cfgs []nodespec.Config
	switch {
	case o.configDir != "":
		var err error
		cfgs, err = regress.LoadConfigDir(o.configDir)
		if err != nil {
			return err
		}
	case o.matrix:
		cfgs = regress.StandardMatrix()
		if o.quick {
			cfgs = cfgs[:6]
		}
	default:
		return fmt.Errorf("pass -config DIR or -matrix (see -h)")
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
	// when the configs came from a directory) before any cycle runs.
	var rep *lint.Report
	if o.configDir != "" {
		srcs, err := regress.LoadSourceDir(o.configDir)
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
		fmt.Fprintln(os.Stderr, "lint:", d)
	}
	if rep.HasErrors() {
		if !o.nolint {
			return fmt.Errorf("%s (run crvelint for details, or pass -nolint to override)", rep.Summary())
		}
		fmt.Fprintf(os.Stderr, "lint: %s — continuing because -nolint is set\n", rep.Summary())
	}

	// With -json the canonical report owns stdout; everything human-facing
	// (tables, logs, summaries) moves to stderr so piping stays clean.
	hout := io.Writer(os.Stdout)
	if o.jsonOut {
		hout = os.Stderr
	}

	opt := regress.Options{
		Tests: tests, Seeds: seeds, NoLint: true, Workers: o.jobs, // linted above
		KernelStats: o.kernelstats, RecordWave: o.wave, LegacyAlignment: o.legacyAlign,
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
	results, stats, err := regress.Run(cfgs, opt)
	if err != nil {
		return err
	}
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
	fmt.Fprintf(os.Stderr, "elapsed %s, %d cycles simulated, %.0f cycles/s\n",
		stats.Duration.Round(time.Millisecond), stats.Cycles, stats.Throughput())
	if o.kernelstats {
		fmt.Fprint(hout, regress.KernelReport(results))
	}

	var notConverged int
	if o.close {
		var cstats regress.Stats
		closed := 0
		for _, cr := range results {
			if cr.SuiteCoverage.Full() {
				continue
			}
			copt := closure.Options{
				Seeds: seeds, Workers: o.jobs, Cache: opt.Cache,
				MaxIters: o.maxIters, Budget: o.budget,
			}
			if o.verbose {
				copt.Log = hout
			}
			res, err := closure.CloseGroup(cr.Cfg, cr.SuiteCoverage, copt)
			if err != nil {
				return err
			}
			closure.Text(hout, res.Trajectory)
			cstats.Ran += res.ClosureStats.Ran
			cstats.Cached += res.ClosureStats.Cached
			if res.Trajectory.Converged {
				closed++
			} else {
				notConverged++
			}
			if o.outDir != "" {
				dir := filepath.Join(o.outDir, cr.Cfg.Name)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return err
				}
				f, err := os.Create(filepath.Join(dir, "closure.json"))
				if err != nil {
					return err
				}
				if err := closure.JSON(f, res.Trajectory); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(hout, "closure: %d configuration(s) closed, %d not converged, units %s\n",
			closed, notConverged, cstats)
	}

	if o.jsonOut {
		// Built after closure so the coverage columns reflect whatever the
		// closure loop bought — the same order of operations the service
		// uses, keeping CLI and API reports diffable.
		if err := regress.WriteJSON(os.Stdout, regress.BuildReport(results, stats)); err != nil {
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
