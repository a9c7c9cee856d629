package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"crve/internal/regress"
)

// tiny runs every workload through the benchmark's own code in a few
// seconds: two configurations, two tests, one seed.
var tiny = size{
	configs: 2, tests: 2, seeds: 1,
	setups: 1, minRounds: 5, probeRounds: 5,
	probeUnits: 2, laneGroups: 1, shapeRepeats: 1,
}

// runTiny runs one workload at the tiny size and returns its result and
// everything it printed.
func runTiny(t *testing.T, workload string, traced bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	env, cleanup, err := newEnv(workload, 3, 200*time.Millisecond, tiny, t.TempDir(), &out)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	fn, names := workloads[workload].plain, endToEnd
	if traced {
		fn, names = workloads[workload].traced, perLayer
	}
	o, err := fn(context.Background(), env)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	res, err := o.result(names)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	printMetrics(&out, res, o)
	return res, out.String()
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				res, out := runTiny(t, name, traced)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("output check failed: %+v\n%s", res, out)
				}
				names := endToEnd
				if traced {
					names = perLayer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(names))
				}
				for _, m := range append(names, metric{"fail_ratio", "ratio"}) {
					if v, ok := res.Metrics[m.name]; ok && v.Unit != m.unit {
						t.Errorf("%s: unit %q, want %q", m.name, v.Unit, m.unit)
					}
					if !hasMetricLine(out, m) {
						t.Errorf("no line prints %s with unit %s", m.name, m.unit)
					}
				}
				if !strings.Contains(out, "ledger "+name+" seed=3 ") {
					t.Errorf("no ledger line for %s", name)
				}
			})
		}
	}
}

func hasMetricLine(out string, m metric) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" && f[1] == m.name && f[3] == m.unit {
			return true
		}
	}
	return false
}

// TestReplayMatchesEngine checks that the traced replay, cold and then warm
// over the cache it filled, reports exactly what regress.Run reports.
func TestReplayMatchesEngine(t *testing.T) {
	ctx := context.Background()
	env, cleanup, err := newEnv("signoff-cold", 5, time.Second, tiny, t.TempDir(), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	in := inputs{cfgs: makeInputs(5, fullSize).cfgs[4:7], tests: makeInputs(5, fullSize).tests[5:8], seeds: testSeeds(5, 2)}
	engineCache, err := freshCache(env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := signoffPass(ctx, in, engineCache)
	if err != nil {
		t.Fatal(err)
	}
	replayCache, err := freshCache(env)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := replay(ctx, newTracer(), in, replayCache, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := regress.WriteJSON(&want, p.report); err != nil {
		t.Fatal(err)
	}
	if err := regress.WriteJSON(&got, cold.report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("cold replay report differs from the engine's:\n%s\nwant:\n%s", got.String(), want.String())
	}
	warm, err := replay(ctx, newTracer(), in, replayCache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.stats.Cached != in.units() {
		t.Fatalf("warm replay served %d of %d units from cache", warm.stats.Cached, in.units())
	}
	engine, _ := checkReport(p.report)
	served, _ := checkReport(warm.report)
	if served.digest != engine.digest {
		t.Fatalf("warm replay digest %s, engine %s", served.digest, engine.digest)
	}
}

// TestCorruptReportTripsCheck checks that the output check catches a report
// that differs from the reference, and one whose runs fail sign-off.
func TestCorruptReportTripsCheck(t *testing.T) {
	ctx := context.Background()
	in := makeInputs(7, tiny)
	p, err := signoffPass(ctx, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := checkReport(p.report)
	if err != nil {
		t.Fatal(err)
	}
	if failed, problem := verify(good, good.digest, len(in.cfgs), in.units()); failed != 0 || problem != "" {
		t.Fatalf("clean report fails the check: %d failed, %s", failed, problem)
	}

	p.report.Configs[1].Runs[0].Transactions++
	bad, _ := checkReport(p.report)
	if failed, problem := verify(bad, good.digest, len(in.cfgs), in.units()); failed != in.units() || problem == "" {
		t.Errorf("report with a changed transaction count passes: %d failed, %q", failed, problem)
	}
	p.report.Configs[1].Runs[0].Transactions--

	p.report.Configs[0].Runs[1].MinAlignment = 98.5
	p.report.Configs[0].SignedOff = false
	p.report.SignedOff--
	bad, _ = checkReport(p.report)
	if failed, problem := verify(bad, "", len(in.cfgs), in.units()); failed != 1 || problem == "" {
		t.Errorf("report with a misaligned run passes: %d failed, %q", failed, problem)
	}

	o := newOutcome()
	o.attempted = in.units()
	env := &runEnv{out: &bytes.Buffer{}}
	o.checkPass(env, in, p, good.digest, "corrupted")
	if res, _ := o.result(nil); res.Correct {
		t.Error("a corrupted pass leaves the run correct")
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out bytes.Buffer
	if code, err := run("closure", 1, 1, 0, t.TempDir(), &out); code == 0 || err == nil || out.Len() != 0 {
		t.Errorf("run(closure) = %d, %v, printed %q", code, err, out.String())
	}
}

// TestBenchmarkJSONListsTheMetrics checks that BENCHMARK.json at the
// repository root names exactly the metrics the benchmark prints, with the
// same units.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		code   []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.listed[i].Name != m.name || c.listed[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark prints %s (%s)",
					i, c.listed[i].Name, c.listed[i].Unit, m.name, m.unit)
			}
		}
	}
}
