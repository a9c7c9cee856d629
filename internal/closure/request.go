package closure

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"crve/internal/core"
	"crve/internal/lint"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/testcases"
)

// Request is one regression request, filled by every front end: the regress
// command and the dashboard through Flags, the job service from its POST
// body (jobs.Spec). It names configurations, tests, seeds and extras.
type Request struct {
	// Matrix selects the standard ≥36-configuration matrix; Quick restricts
	// it to the first 6 (the CI slice).
	Matrix bool `json:"matrix,omitempty"`
	Quick  bool `json:"quick,omitempty"`
	// Configs holds inline HDL-parameter files (the .cfg text format), one
	// configuration each, run after the matrix and any file a front end read.
	Configs []string `json:"configs,omitempty"`
	// Tests names the suite subset (default: all twelve generic tests).
	Tests []string `json:"tests,omitempty"`
	// Seeds lists the per-test seeds (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// NoLint runs the request even when the lint gate finds errors.
	NoLint bool `json:"nolint,omitempty"`
	// KernelStats collects the simulation-kernel profile per unit.
	KernelStats bool `json:"kernelstats,omitempty"`
	// RecordWave keeps compact binary waveform recordings (.crw) per run.
	RecordWave bool `json:"record_wave,omitempty"`
	// Close runs the coverage-closure loop on configurations the suite
	// leaves below 100% functional coverage; MaxIters/Budget bound it.
	Close    bool   `json:"close,omitempty"`
	MaxIters int    `json:"max_iters,omitempty"`
	Budget   uint64 `json:"budget,omitempty"`
}

// Flags registers the request's fields on fs with their help text and
// parsers, the one table front ends build on. Configs has no flag: each
// front end supplies configurations its own way.
func (r *Request) Flags(fs *flag.FlagSet) {
	fs.BoolVar(&r.Matrix, "matrix", false, "use the standard >=36-configuration matrix")
	fs.BoolVar(&r.Quick, "quick", false, "with -matrix: run only the first 6 configurations")
	fs.Var((*StringList)(&r.Tests), "tests", "comma-separated `list` of test names (default: all 12)")
	fs.Var((*SeedList)(&r.Seeds), "seeds", "comma-separated `list` of seeds (default: 1; the first also salts closure seeds)")
	fs.BoolVar(&r.NoLint, "nolint", false, "skip the static-analysis gate and run even with lint errors")
	fs.BoolVar(&r.KernelStats, "kernelstats", false, "collect and print the simulation-kernel profile (deltas/cycle, settle depth, hottest processes)")
	fs.BoolVar(&r.RecordWave, "wave", false, "keep compact binary waveform recordings (.crw) per run")
	fs.BoolVar(&r.Close, "close", false, "run the coverage-closure loop on configurations the suite leaves below 100% functional coverage")
	fs.IntVar(&r.MaxIters, "max-iters", 8, "with -close: maximum closure iterations per configuration")
	fs.Uint64Var(&r.Budget, "budget", 0, "with -close: closure cycle budget per configuration, both views (0 = unlimited)")
}

// Resolve makes the request runnable, the same way for every front end:
// the matrix (or its quick slice), then srcs, which a front end parsed from
// files and which keep their file:line positions, then the Configs texts,
// positioned as configs[i] and, without a name line, named config<i>;
// every test unless Tests names some; seeds [1] unless Seeds lists some.
// regress.LintSet gates all of it with the fabrics topology files: an error
// refuses the request unless NoLint is set, and a configuration that does
// not parse or validate is refused even then. This is the one lint gate: the
// engine behind Run does not lint again. A front end adds Workers, Cache,
// Log and Progress to the returned Options and calls Run.
func (r *Request) Resolve(srcs []lint.Source, fabrics []string) ([]nodespec.Config, *lint.Report, Options, error) {
	var cfgs []nodespec.Config
	if r.Matrix {
		cfgs = regress.StandardMatrix()
		if r.Quick {
			cfgs = cfgs[:6]
		}
	} else if r.Quick {
		return nil, nil, Options{}, errors.New("quick needs matrix")
	}
	all := make([]lint.Source, 0, len(cfgs)+len(srcs)+len(r.Configs))
	for _, cfg := range cfgs {
		all = append(all, lint.MemSource(cfg))
	}
	all = append(all, srcs...)
	for i, text := range r.Configs {
		all = append(all, regress.ParseNamed(fmt.Sprintf("configs[%d]", i), fmt.Sprintf("config%d", i), strings.NewReader(text)))
	}
	if len(all) == 0 {
		return nil, nil, Options{}, errors.New("empty request: set matrix or give a configuration")
	}
	tests := testcases.All()
	if len(r.Tests) > 0 {
		tests = make([]core.Test, len(r.Tests))
		for i, name := range r.Tests {
			tc, err := testcases.ByName(name)
			if err != nil {
				return nil, nil, Options{}, err
			}
			tests[i] = tc
		}
	}
	seeds := r.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}

	rep, err := regress.LintSet(all, seeds, fabrics)
	if err != nil {
		return nil, nil, Options{}, err
	}
	if rep.HasErrors() && !r.NoLint {
		var text strings.Builder
		rep.Text(&text)
		return nil, rep, Options{}, fmt.Errorf("request failed lint (set nolint to override):\n%s", strings.TrimSuffix(text.String(), "\n"))
	}
	for _, src := range all[len(cfgs):] {
		if len(src.Parse) > 0 {
			return nil, rep, Options{}, fmt.Errorf("%s (nolint cannot run a configuration that does not parse)", src.Parse[0])
		}
		if err := src.Cfg.Validate(); err != nil {
			return nil, rep, Options{}, fmt.Errorf("%s: %w", src.File, err)
		}
		cfgs = append(cfgs, src.Cfg)
	}
	return cfgs, rep, Options{
		Options: regress.Options{
			Tests: tests, Seeds: seeds,
			KernelStats: r.KernelStats, RecordWave: r.RecordWave,
		},
		Close: r.Close, MaxIters: r.MaxIters, Budget: r.Budget,
	}, nil
}

// StringList is a comma-separated list flag. Set replaces the list with the
// value's fields, trimmed of spaces; an empty field stays in the list.
type StringList []string

func (l StringList) String() string { return strings.Join(l, ",") }

// Set parses a comma-separated list.
func (l *StringList) Set(s string) error {
	*l = strings.Split(s, ",")
	for i, f := range *l {
		(*l)[i] = strings.TrimSpace(f)
	}
	return nil
}

// SeedList is a comma-separated list flag of int64 seeds. Set replaces the
// list and refuses a field that is not a decimal int64.
type SeedList []int64

func (l SeedList) String() string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint([]int64(l)), "[]"), " ", ",")
}

// Set parses a comma-separated seed list.
func (l *SeedList) Set(s string) error {
	var seeds []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", f)
		}
		seeds = append(seeds, v)
	}
	*l = seeds
	return nil
}
