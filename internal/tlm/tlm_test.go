package tlm

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/stbus"
	"crve/internal/testcases"
)

func cfg(nInit, nTgt int) nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: nInit, NumTgt: nTgt,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(nTgt, 0x1000, 0x1000),
	}.WithDefaults()
}

func traffic() catg.TrafficConfig {
	return catg.TrafficConfig{Ops: 40, UnmappedPct: 5, ChunkPct: 10, IdlePct: 10, PriMax: 7}
}

func target() catg.TargetConfig {
	return catg.TargetConfig{MinLatency: 1, MaxLatency: 6, GntGapPct: 20}
}

// runPorts runs the ports-approach bench on a test of traffic and target.
func runPorts(t *testing.T, c nodespec.Config, tc catg.TrafficConfig, seed int64, bugs bca.Bugs) *core.RunResult {
	t.Helper()
	res, err := core.RunPorts(context.Background(), c, core.Test{Name: "tlm", Traffic: tc, Target: target()}, seed, bugs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTLMRunDrainsClean(t *testing.T) {
	res := runPorts(t, cfg(3, 2), traffic(), 42, bca.Bugs{})
	if !res.Passed() {
		t.Fatalf("TLM run failed: drained=%v violations=%v scoreErrors=%v", res.Drained, res.Violations, res.ScoreErrors)
	}
	if res.Transactions != 3*40 {
		t.Errorf("transactions = %d, want 120", res.Transactions)
	}
}

// TestTLMMatchesWrappedBench is the core future-work claim: the ports
// approach must report exactly what the wrapped signal-level bench reports
// for the same configuration, test and seed — cycles, drain, transactions,
// protocol violations, scoreboard errors and bin-identical functional
// coverage. Both benches resolve the whole core.Test alike, step the same
// CATG cores against the same engine, observe through the same catg.Env and
// run by core's one loop, so they agree on every standard-matrix
// configuration and generic test, the per-port TrafficFor and TargetFor
// tests included: with a clean BCA (bugs=false, where both must pass) and
// under each seeded bug (bugs=true), run to drain, and cut short at 120
// cycles, clean and under T2OrderIgnored. The configurations run in
// parallel.
func TestTLMMatchesWrappedBench(t *testing.T) {
	bugged := []bca.Bugs{{LRUInit: true}, {ChunkLckIgnored: true}, {PipeOffByOne: true},
		{ErrRespTIDZero: true}, {T2OrderIgnored: true}}
	for _, c := range regress.StandardMatrix() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, test := range testcases.All() {
				t.Run(fmt.Sprintf("%v/bugs=false/%s", c.Port.Type, test.Name), func(t *testing.T) {
					wrapped, ports := compareBenches(t, c, test, bca.Bugs{})
					if !wrapped.Passed() || !ports.Passed() {
						t.Errorf("clean runs failed (wrapped=%v ports=%v %v %v)",
							wrapped.Passed(), ports.Passed(), ports.Violations, ports.ScoreErrors)
					}
					compareBenches(t, c, cutShort(test), bca.Bugs{})
				})
				t.Run(fmt.Sprintf("%v/bugs=true/%s", c.Port.Type, test.Name), func(t *testing.T) {
					for _, bugs := range bugged {
						compareBenches(t, c, test, bugs)
					}
					compareBenches(t, c, cutShort(test), bca.Bugs{T2OrderIgnored: true})
				})
			}
		})
	}
}

// cutShort bounds test at 120 cycles, which stops most units undrained.
func cutShort(test core.Test) core.Test {
	test.MaxCycles = 120
	return test
}

// compareBenches runs one unit at seed 1 on the wrapped bench and the ports
// approach and reports every field in which they differ.
func compareBenches(t *testing.T, c nodespec.Config, test core.Test, bugs bca.Bugs) (wrapped, ports *core.RunResult) {
	t.Helper()
	const seed = 1
	wrapped, err := core.RunTest(c, core.BCAView, test, seed, core.RunOptions{Bugs: bugs})
	if err != nil {
		t.Fatal(err)
	}
	ports, err = core.RunPorts(context.Background(), c, test, seed, bugs)
	if err != nil {
		t.Fatal(err)
	}
	unit := fmt.Sprintf("bugs %v, max cycles %d", bugs.List(), test.MaxCycles)
	if wrapped.Cycles != ports.Cycles || wrapped.Drained != ports.Drained {
		t.Errorf("%s: cycles %d drained %v (wrapped) vs %d drained %v (ports)",
			unit, wrapped.Cycles, wrapped.Drained, ports.Cycles, ports.Drained)
	}
	if wrapped.Transactions != ports.Transactions {
		t.Errorf("%s: transactions %d (wrapped) vs %d (ports)", unit, wrapped.Transactions, ports.Transactions)
	}
	if !reflect.DeepEqual(wrapped.Violations, ports.Violations) {
		t.Errorf("%s: violations differ:\nwrapped %v\nports   %v", unit, wrapped.Violations, ports.Violations)
	}
	if !reflect.DeepEqual(wrapped.ScoreErrors, ports.ScoreErrors) {
		t.Errorf("%s: scoreboard errors differ:\nwrapped %q\nports   %q", unit, wrapped.ScoreErrors, ports.ScoreErrors)
	}
	if eq, why := wrapped.Coverage.EqualHits(ports.Coverage); !eq {
		t.Errorf("%s: coverage differs between wrapped and ports approach: %s", unit, why)
	}
	if ports.View != core.BCAView || ports.Test != test.Name || ports.Seed != seed {
		t.Errorf("%s: ports run reports view %v, test %q, seed %d", unit, ports.View, ports.Test, ports.Seed)
	}
	return wrapped, ports
}

// TestTLMMatchesRTL closes the triangle: the ports-approach BCA bench also
// matches the RTL signal-level bench, because the clean views are
// cycle-equivalent.
func TestTLMMatchesRTL(t *testing.T) {
	c := cfg(2, 2)
	test := core.Test{Name: "tlm_equiv", Traffic: traffic(), Target: target()}
	rtlRes, err := core.RunTest(c, core.RTLView, test, 5, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ports := runPorts(t, c, traffic(), 5, bca.Bugs{})
	if eq, why := rtlRes.Coverage.EqualHits(ports.Coverage); !eq {
		t.Errorf("coverage differs between RTL bench and ports approach: %s", why)
	}
}

// TestTLMCatchesBugThroughScoreboard shows the transaction-level bench still
// verifies: a bugged engine fails its checks, and its protocol checker
// flags the error responses whose tid matches no outstanding request.
func TestTLMCatchesBugThroughScoreboard(t *testing.T) {
	c := cfg(1, 1)
	tc := catg.TrafficConfig{Ops: 40, UnmappedPct: 40}
	res := runPorts(t, c, tc, 3, bca.Bugs{ErrRespTIDZero: true})
	if res.Passed() {
		t.Error("err-resp-tid-zero should break the transaction-level checks")
	}
	unknownTag := false
	for _, v := range res.Violations {
		unknownTag = unknownTag || v.Rule == "resp-unknown-tag"
	}
	if !unknownTag {
		t.Errorf("no resp-unknown-tag violation; violations: %v", res.Violations)
	}
}

func TestTLMSharedBusConfig(t *testing.T) {
	c := cfg(3, 2)
	c.Arch = nodespec.SharedBus
	c.ReqArb, c.RespArb = arb.RoundRobin, arb.RoundRobin
	res := runPorts(t, c, traffic(), 11, bca.Bugs{})
	if !res.Passed() {
		t.Fatalf("shared-bus TLM run failed: %v", res.ScoreErrors)
	}
}

func TestTLMType2Config(t *testing.T) {
	c := cfg(2, 2)
	c.Port.Type = stbus.Type2
	res := runPorts(t, c, traffic(), 13, bca.Bugs{})
	if !res.Passed() {
		t.Fatalf("Type 2 TLM run failed: %v", res.ScoreErrors)
	}
}

func TestTLMDeterministic(t *testing.T) {
	a, b := runPorts(t, cfg(2, 2), traffic(), 9, bca.Bugs{}), runPorts(t, cfg(2, 2), traffic(), 9, bca.Bugs{})
	if a.Cycles != b.Cycles || a.Transactions != b.Transactions {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
	if eq, why := a.Coverage.EqualHits(b.Coverage); !eq {
		t.Errorf("coverage differs across identical runs: %s", why)
	}
}

// TestRunTestIsRunPorts pins the deprecated entry to the bench it now
// calls: a test of one traffic and one target configuration on
// core.RunPorts.
func TestRunTestIsRunPorts(t *testing.T) {
	got, err := RunTest(cfg(3, 2), traffic(), target(), 42, bca.Bugs{LRUInit: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunPorts(context.Background(), cfg(3, 2), core.Test{Traffic: traffic(), Target: target()}, 42, bca.Bugs{LRUInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunTest reports %s, core.RunPorts %s", got.Summary(), want.Summary())
	}
}
