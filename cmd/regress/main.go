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
//	regress -matrix -quick -config node.cfg  # the slice, then the file
//	regress -matrix -j 8 -cache ./rc   # 8 workers, incremental result cache
//	regress -emit ./configs            # materialise the matrix as .cfg files
//	regress -config ./configs -close   # close coverage holes with synthesized tests
//	regress -config node.cfg -close -plan  # report holes and planned units, run none
//	regress -matrix -quick -kernelstats # also print the RTL kernel profile per config
//	regress -config ./configs -fabric topo.fab  # also gate on a whole-fabric check
//
// The request flags and their resolution are closure.Request's, shared with
// regressd: an invalid request fails here as it fails there.
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
	"strings"
	"time"

	"crve/internal/closure"
	"crve/internal/lint"
	"crve/internal/regress"
)

// options collects the parsed command line: the request plus CLI-only settings.
type options struct {
	req        closure.Request
	configPath string
	fabrics    closure.StringList
	outDir     string
	emitDir    string
	verbose    bool
	jobs       int
	cacheDir   string
	plan       bool
	jsonOut    bool
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
	o.req.Flags(fs)
	fs.StringVar(&o.configPath, "config", "", "a .cfg parameter file or a directory of them")
	fs.StringVar(&o.outDir, "out", "", "directory for reports and waveform recordings")
	fs.StringVar(&o.emitDir, "emit", "", "write the standard matrix as .cfg files and exit")
	fs.BoolVar(&o.verbose, "v", false, "log each run")
	fs.IntVar(&o.jobs, "j", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.StringVar(&o.cacheDir, "cache", "", "incremental result cache directory (re-runs only what changed)")
	fs.BoolVar(&o.plan, "plan", false, "with -close: report the holes and the first iteration's planned units instead of running them")
	fs.Var(&o.fabrics, "fabric", "comma-separated `list` of topology files (*.fab) the matrix must compose into; checked by the lint gate")
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

// execute runs what the options ask for: it emits the matrix, or resolves
// the request and runs it and prints its reports.
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
	if o.plan && !o.req.Close {
		return fmt.Errorf("-plan needs -close")
	}

	var srcs []lint.Source
	if o.configPath != "" {
		var err error
		if srcs, err = regress.LoadSources(o.configPath); err != nil {
			return err
		}
	}
	cfgs, rep, opt, err := o.req.Resolve(srcs, o.fabrics)
	if err != nil {
		return err
	}
	for _, d := range rep.Diags {
		fmt.Fprintln(stderr, "lint:", d)
	}
	if rep.HasErrors() {
		fmt.Fprintf(stderr, "lint: %s — continuing because -nolint is set\n", rep.Summary())
	}

	// With -json the canonical report owns stdout; everything human-facing
	// (tables, logs, summaries) moves to stderr so piping stays clean.
	hout := stdout
	if o.jsonOut {
		hout = stderr
	}

	opt.Workers = o.jobs
	opt.Close = opt.Close && !o.plan
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
	report := regress.BuildReport(results, stats)
	fmt.Fprint(hout, regress.MatrixReport(results))
	fmt.Fprintf(hout, "signed off: %d/%d configurations\n", report.SignedOff, report.Total)
	fmt.Fprintf(hout, "work units: %s\n", stats)
	// Wall-clock and throughput come from the engine's Stats — computed
	// once, read everywhere — and go to stderr so report output stays
	// deterministic (byte-identical across runs and -j widths).
	fmt.Fprintf(stderr, "elapsed %s, %d cycles simulated, %.0f cycles/s\n",
		stats.Duration.Round(time.Millisecond), stats.Cycles, stats.Throughput())
	if o.req.KernelStats {
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
		if err := regress.WriteJSON(stdout, report); err != nil {
			return err
		}
	}

	if o.outDir != "" {
		if err := regress.WriteReports(o.outDir, results); err != nil {
			return err
		}
		fmt.Fprintf(hout, "reports written to %s\n", o.outDir)
	}
	if report.SignedOff != report.Total {
		return fmt.Errorf("%d configuration(s) failed sign-off", report.Total-report.SignedOff)
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
