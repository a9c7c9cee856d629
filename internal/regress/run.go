package regress

import (
	"context"
	"fmt"
	"io"
	"strings"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/lint"
	"crve/internal/nodespec"
	"crve/internal/sim"
)

// Options tunes a regression run.
type Options struct {
	// Tests is the suite to run (the twelve generic test cases by default —
	// supplied by the caller to avoid an import cycle with testcases).
	Tests []core.Test
	// Seeds lists the seeds each test file runs with ("Same test file could
	// be run more than one time with a different seed").
	Seeds []int64
	// Bugs seeds the BCA view (for the bug-detection experiment).
	Bugs bca.Bugs
	// Log receives progress lines when non-nil (batch-mode output).
	Log io.Writer
	// Progress, when non-nil, receives one event per merged work unit, in
	// canonical order, from the single merge goroutine — the structured
	// counterpart of Log for callers (the job service) that track counters
	// instead of text.
	Progress func(Progress)
	// NoLint skips the static-analysis gate in RunMatrix. By default a
	// matrix with lint errors refuses to run: a mis-specified node config
	// should fail in milliseconds, not mid-run after expensive cycles.
	NoLint bool
	// Fabrics lists topology files (*.fab) to check alongside the matrix:
	// the run refuses to start while any fabric the configs are meant to
	// compose into fails the whole-topology rules (CRVE018–CRVE023), under
	// the same NoLint override as the per-config gate.
	Fabrics []string
	// Workers bounds the engine's worker pool — how many (config, test,
	// seed) units simulate concurrently. 0 means runtime.GOMAXPROCS(0);
	// 1 executes strictly serially. The merged output is byte-identical
	// at any width.
	Workers int
	// Cache, when non-nil, makes the run incremental: units whose inputs
	// hash to an existing entry are served from disk instead of
	// re-simulated, and fresh results are stored back.
	Cache *Cache
	// KernelStats collects the simulation-kernel profile of every simulated
	// unit (cache-served units keep whatever profile their stored record
	// has, possibly none). Aggregate with KernelReport.
	KernelStats bool
	// RecordWave keeps the compact binary waveform recording of every
	// simulated unit (WriteReports stores them as .crw files). Off by
	// default: the streaming alignment path needs no retained waveforms.
	RecordWave bool
}

// TestRun is one (test, seed) execution on both views.
type TestRun struct {
	Test string
	Seed int64
	Pair *core.PairResult
	// Cached reports whether the result was served from the incremental
	// cache rather than simulated (always false when the run had no cache).
	Cached bool
}

// ConfigResult aggregates a full suite run on one node configuration.
type ConfigResult struct {
	Cfg  nodespec.Config
	Runs []TestRun

	// SuiteCoverage merges the RTL functional coverage of every run into
	// the configuration-level report.
	SuiteCoverage *coverage.Group
	// CodeCov merges the RTL code coverage of every run.
	CodeCov *coverage.CodeMap
	// CoverageAllEqual reports whether every run's functional coverage
	// matched between the views.
	CoverageAllEqual bool
	// MinAlignment is the worst per-port alignment rate over all runs.
	MinAlignment float64
	// RTLFailures / BCAFailures count runs whose checks failed per view.
	RTLFailures, BCAFailures int
}

// SignedOff applies the paper's criteria to the whole configuration: at
// least one run executed, all checks pass on both views, coverage equal,
// every port ≥ 99 % aligned. The zero-run guard matters: an empty Runs
// slice leaves every aggregate at its vacuous optimum (no failures, equal
// coverage, 100 % alignment), and sign-off on evidence of nothing is
// exactly the hole a verification flow exists to close.
func (cr *ConfigResult) SignedOff() bool {
	if len(cr.Runs) == 0 {
		return false
	}
	if cr.RTLFailures > 0 || cr.BCAFailures > 0 || !cr.CoverageAllEqual {
		return false
	}
	return cr.MinAlignment >= 99.0
}

// SuiteTraffic returns the union traffic configuration whose coverage model
// is a superset of every test's, so per-test groups merge into one
// suite-level report. It is catg.UnionTraffic, re-exported because the whole
// regression layer (engine, cache, closure) keys its suite-level coverage
// model off this one definition.
func SuiteTraffic(cfg nodespec.Config) catg.TrafficConfig {
	return catg.UnionTraffic(cfg)
}

// newConfigResult builds the empty aggregate for one configuration: the
// suite-level coverage model, an empty code map, and the vacuous optima the
// per-run merges tighten.
func newConfigResult(cfg nodespec.Config) *ConfigResult {
	return &ConfigResult{
		Cfg:              cfg,
		SuiteCoverage:    catg.NewCoverageModel(cfg, SuiteTraffic(cfg)).Group,
		CodeCov:          coverage.NewCodeMap(),
		CoverageAllEqual: true,
		MinAlignment:     100,
	}
}

// add folds one run into the configuration aggregate. It mutates shared
// coverage structures, so the engine calls it only from the single merge
// goroutine, in canonical run order.
func (cr *ConfigResult) add(test string, seed int64, pair *core.PairResult, cached bool) error {
	cr.Runs = append(cr.Runs, TestRun{Test: test, Seed: seed, Pair: pair, Cached: cached})
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
		return fmt.Errorf("regress: coverage merge: %w", err)
	}
	if pair.RTL.CodeCov != nil {
		cr.CodeCov.Merge(pair.RTL.CodeCov)
	}
	return nil
}

// RunConfig executes the full suite against one configuration, on both
// views, with every seed, and aggregates the reports. An empty test suite
// is an error: a configuration that runs nothing must not produce a result
// that could sign off. Parallelism and caching follow opt.Workers/opt.Cache.
func RunConfig(cfg nodespec.Config, opt Options) (*ConfigResult, error) {
	return RunConfigCtx(context.Background(), cfg, opt)
}

// RunConfigCtx is RunConfig under a cancellation context (see RunCtx).
func RunConfigCtx(ctx context.Context, cfg nodespec.Config, opt Options) (*ConfigResult, error) {
	results, _, err := runEngine(ctx, []nodespec.Config{cfg}, opt, false)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

func passStr(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// LintConfigs runs the static-analysis layer over a configuration set and
// the run's seed list, positioning diagnostics at the configuration names
// (file-based positions come from LoadSourceDir + lint.CheckSet directly).
func LintConfigs(cfgs []nodespec.Config, seeds []int64) *lint.Report {
	srcs := make([]lint.Source, len(cfgs))
	for i, cfg := range cfgs {
		srcs[i] = lint.MemSource(cfg)
	}
	return lint.CheckSet(srcs, seeds)
}

// Run executes the suite over every configuration on the parallel,
// incremental engine and returns the per-configuration aggregates plus the
// ran/cached statistics. Seeds default once, up front, so the lint gate and
// the engine always see the same seed list — they can never disagree about
// which runs execute. Unless opt.NoLint is set, the matrix is linted first
// and refuses to run on any Error-grade diagnostic — the whole point of the
// static layer is to catch a bad config before the first simulation cycle.
func Run(cfgs []nodespec.Config, opt Options) ([]*ConfigResult, Stats, error) {
	return RunCtx(context.Background(), cfgs, opt)
}

// RunCtx is Run under a cancellation context: cancelling ctx stops the
// engine promptly mid-matrix (units already completed stay merged and, with
// a cache, stored; unstarted units never run) and returns ctx's error. This
// is the entry point of the served tier — one job, one context.
func RunCtx(ctx context.Context, cfgs []nodespec.Config, opt Options) ([]*ConfigResult, Stats, error) {
	if len(opt.Seeds) == 0 {
		opt.Seeds = []int64{1}
	}
	if !opt.NoLint {
		rep := LintConfigs(cfgs, opt.Seeds)
		if rep.HasErrors() {
			var sb strings.Builder
			rep.Text(&sb)
			return nil, Stats{}, fmt.Errorf("regress: matrix failed lint (set NoLint to override):\n%s", sb.String())
		}
		for _, path := range opt.Fabrics {
			frep, err := CheckFabric(path)
			if err != nil {
				return nil, Stats{}, fmt.Errorf("regress: fabric %s: %w", path, err)
			}
			if frep.HasErrors() {
				var sb strings.Builder
				frep.Text(&sb)
				return nil, Stats{}, fmt.Errorf("regress: fabric %s failed lint (set NoLint to override):\n%s", path, sb.String())
			}
			rep.Diags = append(rep.Diags, frep.Diags...)
		}
		if opt.Log != nil {
			for _, d := range rep.Diags {
				fmt.Fprintf(opt.Log, "lint: %s\n", d)
			}
		}
	}
	return runEngine(ctx, cfgs, opt, true)
}

// RunMatrix is Run without the statistics, kept for callers that only need
// the results.
func RunMatrix(cfgs []nodespec.Config, opt Options) ([]*ConfigResult, error) {
	results, _, err := Run(cfgs, opt)
	return results, err
}

// KernelProfile is the kernel profile of one (configuration, view), merged
// over that view's runs. The JSON form is the wire format of the service's
// kernelstats endpoint.
type KernelProfile struct {
	Config string           `json:"name"`
	View   string           `json:"view"` // "RTL" or "BCA"
	Runs   int              `json:"runs"`
	Stats  *sim.KernelStats `json:"stats"`
}

// KernelProfiles merges the per-run kernel profiles of a matrix run per
// (configuration, view): configurations in result order, RTL before BCA.
// Runs without a profile (cache-served records stored without one, or runs
// without Options.KernelStats) are skipped, and a view with none is left
// out.
func KernelProfiles(results []*ConfigResult) []KernelProfile {
	var out []KernelProfile
	for _, cr := range results {
		for _, view := range []string{"RTL", "BCA"} {
			kp := KernelProfile{Config: cr.Cfg.Name, View: view, Stats: &sim.KernelStats{}}
			for _, run := range cr.Runs {
				r := run.Pair.RTL
				if view == "BCA" {
					r = run.Pair.BCA
				}
				if r.Kernel != nil {
					kp.Stats.Merge(r.Kernel)
					kp.Runs++
				}
			}
			if kp.Runs > 0 {
				out = append(out, kp)
			}
		}
	}
	return out
}

// KernelReport renders the merged simulation-kernel profile of a matrix
// run, one section per (configuration, view) of KernelProfiles:
// deltas/cycle, settle-depth histogram, cyclic-SCC inventory and the
// hottest processes. An empty report says so.
func KernelReport(results []*ConfigResult) string {
	profiles := KernelProfiles(results)
	if len(profiles) == 0 {
		return "no kernel profiles recorded (enable Options.KernelStats on a cold cache)\n"
	}
	var sb strings.Builder
	for _, kp := range profiles {
		fmt.Fprintf(&sb, "%s %s (%d runs)\n", kp.Config, kp.View, kp.Runs)
		kp.Stats.Text(&sb, 5)
	}
	return sb.String()
}

// MatrixReport renders the configuration-level summary table (the paper's
// §5 claim row by row: checkers, coverage, alignment, sign-off).
func MatrixReport(results []*ConfigResult) string {
	var sb strings.Builder
	sb.WriteString("config  ports type arch    reqarb        pipe  runs  rtl  bca  covEq  funcCov  lineCov  minAlign  signoff\n")
	for _, cr := range results {
		lineCov := cr.CodeCov.Percent(coverage.LinePoint)
		fmt.Fprintf(&sb, "%-7s %dx%d   %v   %-7v %-13v %2d   %4d %4d %4d  %-5v  %6.1f%%  %6.1f%%  %7.2f%%  %s\n",
			cr.Cfg.Name, cr.Cfg.NumInit, cr.Cfg.NumTgt, cr.Cfg.Port.Type, cr.Cfg.Arch,
			cr.Cfg.ReqArb, cr.Cfg.PipeSize, len(cr.Runs),
			cr.RTLFailures, cr.BCAFailures, cr.CoverageAllEqual,
			cr.SuiteCoverage.Percent(), lineCov, cr.MinAlignment, passStr(cr.SignedOff()))
	}
	return sb.String()
}
