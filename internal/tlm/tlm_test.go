package tlm

import (
	"fmt"
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

func TestTLMRunDrainsClean(t *testing.T) {
	res, err := RunTest(cfg(3, 2), traffic(), target(), 42, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("TLM run failed: drained=%v scoreErrors=%v", res.Drained, res.ScoreErrors)
	}
	if res.Transactions != 3*40 {
		t.Errorf("transactions = %d, want 120", res.Transactions)
	}
}

// TestTLMMatchesWrappedBench is the core future-work claim: the ports
// approach must report exactly what the wrapped signal-level bench reports —
// same transaction count, bin-identical functional coverage — for the same
// configuration, test and seed. Both benches step the same CATG cores
// against the same engine, so they agree on every generic test, on a Type 2
// and a Type 3 matrix configuration (both with a programming port), with a
// clean BCA (where both must pass) and with a seeded bug alike.
func TestTLMMatchesWrappedBench(t *testing.T) {
	matrix := regress.StandardMatrix()
	for _, c := range []nodespec.Config{matrix[5], matrix[29]} {
		for _, bugs := range []bca.Bugs{{}, {T2OrderIgnored: true}} {
			for _, test := range testcases.All() {
				name := fmt.Sprintf("%s/%v/bugs=%v/%s", c.Name, c.Port.Type, bugs.Any(), test.Name)
				t.Run(name, func(t *testing.T) {
					const seed = 1
					wrapped, err := core.RunTest(c, core.BCAView, test, seed, core.RunOptions{Bugs: bugs})
					if err != nil {
						t.Fatal(err)
					}
					ports, err := Run(c,
						func(i int) catg.TrafficConfig { return trafficFor(test, c, i) },
						func(tg int) catg.TargetConfig { return targetFor(test, c, tg) },
						seed, bugs, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !bugs.Any() && (!wrapped.Passed() || !ports.Passed()) {
						t.Fatalf("clean runs failed (wrapped=%v ports=%v %v)", wrapped.Passed(), ports.Passed(), ports.ScoreErrors)
					}
					if wrapped.Transactions != ports.Transactions {
						t.Errorf("transactions %d (wrapped) vs %d (ports)", wrapped.Transactions, ports.Transactions)
					}
					if eq, why := wrapped.Coverage.EqualHits(ports.Coverage); !eq {
						t.Errorf("coverage differs between wrapped and ports approach: %s", why)
					}
				})
			}
		}
	}
}

// trafficFor and targetFor resolve a test's per-port constraints as the
// signal-level bench does.
func trafficFor(test core.Test, c nodespec.Config, i int) catg.TrafficConfig {
	if test.TrafficFor != nil {
		return test.TrafficFor(c, i)
	}
	return test.Traffic
}

func targetFor(test core.Test, c nodespec.Config, tg int) catg.TargetConfig {
	if test.TargetFor != nil {
		return test.TargetFor(c, tg)
	}
	return test.Target
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
	ports, err := RunTest(c, traffic(), target(), 5, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if eq, why := rtlRes.Coverage.EqualHits(ports.Coverage); !eq {
		t.Errorf("coverage differs between RTL bench and ports approach: %s", why)
	}
}

// TestTLMCatchesBugThroughScoreboard shows the transaction-level bench still
// verifies: a bugged engine fails its scoreboard/drain checks.
func TestTLMCatchesBugThroughScoreboard(t *testing.T) {
	c := cfg(1, 1)
	tc := catg.TrafficConfig{Ops: 40, UnmappedPct: 40}
	res, err := RunTest(c, tc, target(), 3, bca.Bugs{ErrRespTIDZero: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Error("err-resp-tid-zero should break the transaction-level checks")
	}
}

func TestTLMSharedBusConfig(t *testing.T) {
	c := cfg(3, 2)
	c.Arch = nodespec.SharedBus
	c.ReqArb, c.RespArb = arb.RoundRobin, arb.RoundRobin
	res, err := RunTest(c, traffic(), target(), 11, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("shared-bus TLM run failed: %v", res.ScoreErrors)
	}
}

func TestTLMType2Config(t *testing.T) {
	c := cfg(2, 2)
	c.Port.Type = stbus.Type2
	res, err := RunTest(c, traffic(), target(), 13, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("Type 2 TLM run failed: %v", res.ScoreErrors)
	}
}

func TestTLMDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := RunTest(cfg(2, 2), traffic(), target(), 9, bca.Bugs{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Transactions != b.Transactions {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
	if eq, why := a.Coverage.EqualHits(b.Coverage); !eq {
		t.Errorf("coverage differs across identical runs: %s", why)
	}
}
