package regress

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"crve/internal/arb"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/stbus"
	"crve/internal/testcases"
)

// engineCfg builds a small, lint-clean configuration for engine tests.
func engineCfg(t *testing.T, name string, pipe int) nodespec.Config {
	t.Helper()
	cfg := nodespec.Config{
		Name:    name,
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map:      stbus.UniformMap(2, 0x1000, 0x800),
		PipeSize: pipe,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// engineSuite returns a small test suite by name.
func engineSuite(t *testing.T, names ...string) []core.Test {
	t.Helper()
	var tests []core.Test
	for _, name := range names {
		tc, err := testcases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, tc)
	}
	return tests
}

// TestSignedOffRequiresRuns is the zero-run sign-off hole: an empty result
// leaves every aggregate at its vacuous optimum, and that must not read as
// a verified configuration.
func TestSignedOffRequiresRuns(t *testing.T) {
	cr := &ConfigResult{CoverageAllEqual: true, MinAlignment: 100}
	if cr.SignedOff() {
		t.Fatal("a configuration with zero runs must not sign off")
	}
}

// TestEmptySuiteErrors: running nothing is an error, not a vacuous pass —
// on the single-config path and on the matrix path.
func TestEmptySuiteErrors(t *testing.T) {
	cfg := engineCfg(t, "empty", 4)
	if _, err := RunConfig(cfg, Options{}); err == nil {
		t.Error("RunConfig with an empty test suite must error")
	} else if !strings.Contains(err.Error(), "empty test suite") {
		t.Errorf("error should name the empty suite: %v", err)
	}
	if _, _, err := Run([]nodespec.Config{cfg}, Options{}); err == nil {
		t.Error("Run with an empty test suite must error")
	}
}

// TestRunDefaultsSeedsOnce: with no seed list, the default {1} is applied
// before the lint gate and the engine alike, so both see the same runs.
func TestRunDefaultsSeedsOnce(t *testing.T) {
	cfg := engineCfg(t, "seeded", 4)
	results, stats, err := Run([]nodespec.Config{cfg}, Options{
		Tests: engineSuite(t, "basic_write_read"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ran != 1 || stats.Cached != 0 {
		t.Errorf("stats %v, want 1 ran", stats)
	}
	if len(results[0].Runs) != 1 || results[0].Runs[0].Seed != 1 {
		t.Errorf("runs %v, want one run with the default seed 1", results[0].Runs)
	}
}

// TestSerialParallelByteIdentical is the engine's determinism contract: the
// verbose log and the MatrixReport must be byte-identical at any worker
// count, because all merging and logging happens on one goroutine in
// canonical (config, test, seed) order.
func TestSerialParallelByteIdentical(t *testing.T) {
	cfgs := []nodespec.Config{
		engineCfg(t, "par0", 4),
		engineCfg(t, "par1", 2),
		engineCfg(t, "par2", 8),
	}
	suite := engineSuite(t, "basic_write_read", "error_paths")
	runAt := func(workers int) (string, string) {
		var log bytes.Buffer
		results, stats, err := Run(cfgs, Options{
			Tests: suite, Seeds: []int64{1, 2}, Workers: workers, Log: &log,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(cfgs) * len(suite) * 2; stats.Ran != want {
			t.Errorf("workers=%d: ran %d units, want %d", workers, stats.Ran, want)
		}
		return MatrixReport(results), log.String()
	}
	serialRep, serialLog := runAt(1)
	for _, workers := range []int{4, 8} {
		rep, log := runAt(workers)
		if rep != serialRep {
			t.Errorf("workers=%d: MatrixReport differs from serial:\n%s\nvs\n%s", workers, serialRep, rep)
		}
		if log != serialLog {
			t.Errorf("workers=%d: progress log differs from serial:\n%s\nvs\n%s", workers, serialLog, log)
		}
	}
	if !strings.Contains(serialLog, "par1 (") {
		t.Errorf("log missing config header:\n%s", serialLog)
	}
}

// TestParallelErrorIsCanonical: when several units fail, the engine reports
// the canonically first failure regardless of scheduling — parallel error
// output must be as deterministic as the reports.
func TestParallelErrorIsCanonical(t *testing.T) {
	good := engineCfg(t, "aok", 4)
	bad := func(name string) nodespec.Config {
		cfg := nodespec.Config{
			Name:    name,
			Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
			NumInit: 2, NumTgt: 2,
			Arch:   nodespec.FullCrossbar,
			ReqArb: arb.LRU, RespArb: arb.Priority,
			// Routes to a target the node does not have: elaboration fails.
			Map: stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 5}},
		}.WithDefaults()
		return cfg
	}
	cfgs := []nodespec.Config{good, bad("bad1"), bad("bad2")}
	opt := Options{Tests: engineSuite(t, "basic_write_read"), Seeds: []int64{1, 2}, NoLint: true, Workers: 8}
	for i := 0; i < 3; i++ {
		_, _, err := Run(cfgs, opt)
		if err == nil {
			t.Fatal("matrix with broken configs must error")
		}
		if !strings.Contains(err.Error(), "bad1") || strings.Contains(err.Error(), "bad2") {
			t.Errorf("error must cite the canonically first failure (bad1): %v", err)
		}
	}
}

// TestPanickingUnitFailsItsRun: a unit that panics while the bench is built
// fails the run with an error naming the unit and carrying the stack, not
// the process. Nothing is stored, the unit's token comes back and its
// flight is released, so a re-run fails the same way instead of blocking,
// and a healthy test on the same cache still simulates and stores.
func TestPanickingUnitFailsItsRun(t *testing.T) {
	cache := testCache(t, "pinned")
	cfgs := []nodespec.Config{engineCfg(t, "boom", 4)}
	broken := core.Test{Name: "broken", TrafficFor: func(nodespec.Config, int) catg.TrafficConfig {
		panic("traffic generator bug")
	}}
	tokens := make(chan struct{}, 1)
	opt := Options{Tests: []core.Test{broken}, Seeds: []int64{3}, Cache: cache, Workers: 2, Tokens: tokens}
	for pass := 0; pass < 2; pass++ {
		_, _, err := RunCtx(context.Background(), cfgs, opt)
		if err == nil {
			t.Fatalf("pass %d: a panicking unit must fail the run", pass)
		}
		for _, want := range []string{"boom/broken seed 3", "panic: traffic generator bug", "runUnit"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("pass %d: error lacks %q:\n%v", pass, want, err)
			}
		}
		if len(tokens) != 0 {
			t.Fatalf("pass %d: the panicking unit kept its token", pass)
		}
	}
	opt.Tests = engineSuite(t, "basic_write_read")
	if _, stats, err := RunCtx(context.Background(), cfgs, opt); err != nil || stats.Ran != 1 {
		t.Fatalf("healthy unit after the panic: stats %v, err %v", stats, err)
	}
	if _, stats, err := RunCtx(context.Background(), cfgs, opt); err != nil || stats.Cached != 1 {
		t.Fatalf("healthy unit was not stored: stats %v, err %v", stats, err)
	}
}
