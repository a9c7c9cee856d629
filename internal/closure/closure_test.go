package closure

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crve/internal/arb"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/regress"
	"crve/internal/stbus"
	"crve/internal/testcases"
)

// holesConfig is the in-repo twin of configs/closure/regbank.cfg: a node
// whose 16-byte register-bank regions starve the generator of
// large-operation addresses, so the default suite at seed 1 leaves a known
// opcode hole. TestShippedConfigMatches pins the two together.
func holesConfig() nodespec.Config {
	return nodespec.Config{
		Name:     "regbank",
		Port:     stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit:  1,
		NumTgt:   2,
		Arch:     nodespec.SharedBus,
		ReqArb:   arb.Priority,
		RespArb:  arb.RoundRobin,
		Map:      stbus.UniformMap(2, 0x1000, 0x10),
		PipeSize: 4,
	}.WithDefaults()
}

// tinyConfig is a minimal 1x1 node for tests that only need the loop
// mechanics, not interesting coverage.
func tinyConfig() nodespec.Config {
	return nodespec.Config{
		Name:     "tiny",
		Port:     stbus.PortConfig{Type: stbus.Type2, DataBits: 32},
		NumInit:  1,
		NumTgt:   1,
		Arch:     nodespec.SharedBus,
		ReqArb:   arb.Priority,
		RespArb:  arb.RoundRobin,
		Map:      stbus.UniformMap(1, 0x1000, 0x800),
		PipeSize: 2,
	}.WithDefaults()
}

// closeOne runs the suite on cfg and closes its holes through Run, and
// returns the result with its one trajectory.
func closeOne(t *testing.T, cfg nodespec.Config, opt regress.Options) (*Result, *core.ClosureTrajectory) {
	t.Helper()
	opt.Tests = testcases.All()
	res, err := Run(context.Background(), []nodespec.Config{cfg}, Options{Options: opt, Close: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectories) != 1 {
		t.Fatalf("%d trajectories, want 1", len(res.Trajectories))
	}
	return res, res.Trajectories[0]
}

func TestShippedConfigMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "configs", "closure", "regbank.cfg"))
	if err != nil {
		t.Fatalf("shipped closure config missing: %v", err)
	}
	cfg, err := regress.ParseConfig(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	got := regress.FormatConfig(cfg.WithDefaults())
	want := regress.FormatConfig(holesConfig())
	if got != want {
		t.Errorf("configs/closure/regbank.cfg drifted from the test twin:\n--- shipped ---\n%s--- test ---\n%s", got, want)
	}
}

// TestCloseConvergesOnHolesConfig is the headline property: the default
// suite leaves regbank below 100 % functional coverage, and the closure
// engine reaches 100 % within the default budgets.
func TestCloseConvergesOnHolesConfig(t *testing.T) {
	_, traj := closeOne(t, holesConfig(), regress.Options{Seeds: []int64{1}})
	if traj.StartPercent >= 100 {
		t.Fatalf("base suite already full (%.1f%%): regbank no longer demonstrates closure", traj.StartPercent)
	}
	if !traj.Converged || traj.Reason != core.ClosureFull {
		t.Fatalf("closure did not converge: reason=%s trajectory:\n%s", traj.Reason, TextString(traj))
	}
	if traj.FinalPercent != 100 {
		t.Fatalf("final coverage %.1f%%, want 100", traj.FinalPercent)
	}
	if len(traj.Iterations) == 0 || traj.UnitsRun == 0 {
		t.Fatalf("converged without synthesizing anything: %+v", traj)
	}
	if traj.Failures != 0 {
		t.Fatalf("%d synthesized unit(s) failed checks:\n%s", traj.Failures, TextString(traj))
	}
}

// TestCloseNoOpOnFullGroup: closure on an already-full group synthesizes
// zero units, runs zero iterations and leaves the cache untouched.
func TestCloseNoOpOnFullGroup(t *testing.T) {
	cfg := tinyConfig()
	base, err := regress.RunConfig(cfg, regress.Options{Tests: testcases.All(), Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !base.SuiteCoverage.Full() {
		t.Fatalf("tiny config not full after suite (%.1f%%); pick another fixture", base.SuiteCoverage.Percent())
	}
	dir := t.TempDir()
	cache, err := regress.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stats regress.Stats
	traj, err := closeGroup(context.Background(), cfg, base.SuiteCoverage, Options{Options: regress.Options{Cache: cache}}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (regress.Stats{}) {
		t.Errorf("no-op closure counted units: %+v", stats)
	}
	if !traj.Converged || traj.Reason != core.ClosureFull {
		t.Errorf("reason=%s converged=%v, want full/true", traj.Reason, traj.Converged)
	}
	if len(traj.Iterations) != 0 || traj.UnitsRun != 0 || traj.UnitsCached != 0 || traj.TotalCycles != 0 {
		t.Errorf("no-op closure did work: %+v", traj)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("closure on a full group touched the cache: %d entries", len(ents))
	}
}

// TestCloseWorkerDeterminism: the rendered closure report is byte-identical
// at -j 1 and -j 4.
func TestCloseWorkerDeterminism(t *testing.T) {
	run := func(workers int) string {
		_, traj := closeOne(t, holesConfig(), regress.Options{Seeds: []int64{1}, Workers: workers})
		var sb strings.Builder
		Text(&sb, traj)
		if err := JSON(&sb, traj); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Errorf("closure report differs between -j1 and -j4:\n--- j1 ---\n%s--- j4 ---\n%s", serial, parallel)
	}
}

// TestCloseWarmCacheZeroResim: a second closure run against the same cache
// re-simulates nothing and walks the same trajectory.
func TestCloseWarmCacheZeroResim(t *testing.T) {
	cache, err := regress.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := regress.Options{Seeds: []int64{1}, Cache: cache}
	cold, ct := closeOne(t, holesConfig(), opt)
	warm, wt := closeOne(t, holesConfig(), opt)
	if got := warm.Stats; got.Ran != 0 || got.Cycles != 0 {
		t.Errorf("warm closure re-simulated %d unit(s), %d cycles, want 0 (stats %v)", got.Ran, got.Cycles, got)
	}
	if warm.Stats.Cached != cold.Stats.Ran+cold.Stats.Cached {
		t.Errorf("warm cached %d unit(s), cold produced %d", warm.Stats.Cached, cold.Stats.Ran+cold.Stats.Cached)
	}
	if wt.UnitsCached != ct.UnitsRun+ct.UnitsCached {
		t.Errorf("warm cached %d closure unit(s), cold produced %d", wt.UnitsCached, ct.UnitsRun+ct.UnitsCached)
	}
	if ct.Reason != wt.Reason || ct.FinalPercent != wt.FinalPercent ||
		ct.TotalCycles != wt.TotalCycles || len(ct.Iterations) != len(wt.Iterations) {
		t.Errorf("warm trajectory diverged from cold:\n--- cold ---\n%s--- warm ---\n%s", TextString(ct), TextString(wt))
	}
	for i := range ct.Iterations {
		cu, wu := ct.Iterations[i].Units, wt.Iterations[i].Units
		if len(cu) != len(wu) {
			t.Fatalf("iter %d: unit count %d vs %d", i+1, len(cu), len(wu))
		}
		for j := range cu {
			if cu[j].Test != wu[j].Test || cu[j].NewBins != wu[j].NewBins || cu[j].Cycles != wu[j].Cycles {
				t.Errorf("iter %d unit %d diverged: cold %+v warm %+v", i+1, j, cu[j], wu[j])
			}
		}
	}
}

// TestCloseDeadBinsOnly: when the only remaining holes are statically
// unreachable, the loop stops immediately, converged, without planning.
func TestCloseDeadBinsOnly(t *testing.T) {
	cfg := nodespec.Config{
		Name:     "diag",
		Port:     stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit:  2,
		NumTgt:   2,
		Arch:     nodespec.PartialCrossbar,
		Allowed:  [][]bool{{true, false}, {false, true}},
		ReqArb:   arb.Priority,
		RespArb:  arb.RoundRobin,
		Map:      stbus.UniformMap(2, 0x1000, 0x800),
		PipeSize: 4,
	}.WithDefaults()
	cov := catg.NewCoverageModel(cfg, catg.UnionTraffic(cfg)).Group
	// Fill every bin except the dead one (nothing is sampled yet, so every
	// bin is still a hole).
	for _, it := range cov.Items() {
		for _, b := range it.Holes() {
			if !(it.Name == "completion_order" && b == "reordered") {
				it.Hit(b)
			}
		}
	}
	traj, err := closeGroup(context.Background(), cfg, cov, Options{}, &regress.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if traj.Reason != core.ClosureDeadBins || !traj.Converged {
		t.Errorf("reason=%s converged=%v, want dead-bins/true", traj.Reason, traj.Converged)
	}
	if len(traj.Iterations) != 0 {
		t.Errorf("planned %d iteration(s) against dead bins, want 0", len(traj.Iterations))
	}
	if len(traj.DeadBins) != 1 || traj.DeadBins[0] != "completion_order/reordered" {
		t.Errorf("dead bins %v", traj.DeadBins)
	}
}

// TestCloseStallsOnForeignHole: a hole in an item the bench can never sample
// (here: an item the planner does not know and no run declares) exhausts the
// stall counter instead of looping forever, and the fallback unit carries it.
func TestCloseStallsOnForeignHole(t *testing.T) {
	cfg := tinyConfig()
	base, err := regress.RunConfig(cfg, regress.Options{Tests: []core.Test{testcases.BasicWriteRead()}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cov := base.SuiteCoverage
	cov.Item("foreign", "unhittable")
	traj, err := closeGroup(context.Background(), cfg, cov, Options{MaxIters: 100}, &regress.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if traj.Reason != core.ClosureStalled || traj.Converged {
		t.Errorf("reason=%s converged=%v, want stalled/false", traj.Reason, traj.Converged)
	}
	if traj.HolesEnd == 0 {
		t.Error("foreign hole vanished")
	}
	found := false
	for _, it := range traj.Iterations {
		for _, u := range it.Units {
			for _, h := range u.Holes {
				if h == "foreign/unhittable" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no unit was planned for the foreign hole (fallback missing)")
	}
}

// TestCloseBudget: the cycle budget stops the loop between iterations.
func TestCloseBudget(t *testing.T) {
	cfg := tinyConfig()
	base, err := regress.RunConfig(cfg, regress.Options{Tests: []core.Test{testcases.BasicWriteRead()}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cov := base.SuiteCoverage
	cov.Item("foreign", "unhittable") // never closes, so only the budget can stop the loop early
	traj, err := closeGroup(context.Background(), cfg, cov, Options{Budget: 1, MaxIters: 100}, &regress.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if traj.Reason != core.ClosureBudget {
		t.Errorf("reason=%s, want budget", traj.Reason)
	}
	if len(traj.Iterations) != 1 {
		t.Errorf("ran %d iteration(s) on a 1-cycle budget, want exactly 1", len(traj.Iterations))
	}
}

// TestCloseMaxIters: the iteration cap stops the loop.
func TestCloseMaxIters(t *testing.T) {
	cfg := tinyConfig()
	base, err := regress.RunConfig(cfg, regress.Options{Tests: []core.Test{testcases.BasicWriteRead()}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cov := base.SuiteCoverage
	cov.Item("foreign", "unhittable")
	traj, err := closeGroup(context.Background(), cfg, cov, Options{MaxIters: 1}, &regress.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if traj.Reason != core.ClosureMaxIters {
		t.Errorf("reason=%s, want max-iters", traj.Reason)
	}
	if len(traj.Iterations) != 1 {
		t.Errorf("ran %d iteration(s), want 1", len(traj.Iterations))
	}
}

// TestPlanDeterministicAndHashed: the plan is a pure function of its inputs,
// unit names embed a content hash, and changing the iteration (which scales
// the operation count) changes the hash — so the result cache can never
// alias two different syntheses.
func TestPlanDeterministicAndHashed(t *testing.T) {
	cfg := holesConfig()
	holes := []coverage.Hole{{Item: "opcode", Bin: "SWAP1"}, {Item: "latency", Bin: "ge20"}}
	a := Plan(cfg, holes, 1)
	b := Plan(cfg, holes, 1)
	if len(a) != len(b) || len(a) != 2 {
		t.Fatalf("plan sizes: %d vs %d (want 2)", len(a), len(b))
	}
	for i := range a {
		if a[i].Test.Name != b[i].Test.Name {
			t.Errorf("unit %d name differs across identical plans: %q vs %q", i, a[i].Test.Name, b[i].Test.Name)
		}
		if !strings.Contains(a[i].Test.Name, "@") || !strings.HasPrefix(a[i].Test.Name, "closure/") {
			t.Errorf("unit name %q lacks the closure/slug@hash shape", a[i].Test.Name)
		}
	}
	c := Plan(cfg, holes, 2)
	for i := range a {
		if a[i].Test.Name == c[i].Test.Name {
			t.Errorf("iteration 1 and 2 plans share name %q despite different operation counts", a[i].Test.Name)
		}
	}
}

// TestPlanCoversEveryHole: every live hole of the union model appears in
// some planned unit's target list — the planner never silently drops one.
func TestPlanCoversEveryHole(t *testing.T) {
	for _, cfg := range []nodespec.Config{holesConfig(), tinyConfig()} {
		cov := catg.NewCoverageModel(cfg, catg.UnionTraffic(cfg)).Group
		holes := cov.Holes() // everything: nothing sampled yet
		dead := map[coverage.Hole]bool{}
		for _, d := range catg.UnreachableBins(cfg, catg.UnionTraffic(cfg)) {
			dead[d] = true
		}
		var live []coverage.Hole
		for _, h := range holes {
			if !dead[h] {
				live = append(live, h)
			}
		}
		units := Plan(cfg, live, 1)
		planned := map[string]bool{}
		for _, u := range units {
			for _, h := range u.Holes {
				planned[h.String()] = true
			}
		}
		for _, h := range live {
			if !planned[h.String()] {
				t.Errorf("%s: hole %s not covered by any planned unit", cfg.Name, h)
			}
		}
	}
}

func TestPlanFeedbackEscalatesOnlyBarrenRecipes(t *testing.T) {
	cfg := holesConfig()
	holes := []coverage.Hole{{Item: "opcode", Bin: "SWAP1"}, {Item: "latency", Bin: "ge20"}}
	base := PlanWith(cfg, holes, nil)
	if len(base) != 2 {
		t.Fatalf("plan size %d, want 2", len(base))
	}
	slug0, slug1 := unitSlug(base[0].Test.Name), unitSlug(base[1].Test.Name)
	if slug0 == "" || slug1 == "" || slug0 == slug1 {
		t.Fatalf("bad slugs %q, %q from %q, %q", slug0, slug1, base[0].Test.Name, base[1].Test.Name)
	}

	// Only slug1's recipe has come back empty: its unit must change (a
	// bigger dose re-fingerprints the traffic) while slug0's stays
	// byte-identical, preserving its cache identity.
	esc := PlanWith(cfg, holes, History{slug1: {Attempts: 2, Barren: 2}})
	if esc[0].Test.Name != base[0].Test.Name {
		t.Errorf("productive recipe %s changed: %q -> %q", slug0, base[0].Test.Name, esc[0].Test.Name)
	}
	if esc[1].Test.Name == base[1].Test.Name {
		t.Errorf("barren recipe %s did not escalate: still %q", slug1, base[1].Test.Name)
	}

	// A recipe whose last attempt yielded bins is back at the base dose no
	// matter how many attempts preceded it.
	reset := PlanWith(cfg, holes, History{slug1: {Attempts: 5, Barren: 0}})
	if reset[1].Test.Name != base[1].Test.Name {
		t.Errorf("recipe %s with reset barren streak escalated: %q -> %q", slug1, base[1].Test.Name, reset[1].Test.Name)
	}

	// The dose is capped: three consecutive barren rounds saturate at
	// maxOps, exactly like the legacy iteration ramp at iter 4 and beyond.
	capped := PlanWith(cfg, holes, History{slug0: {Barren: 3}, slug1: {Barren: 9}})
	legacy := Plan(cfg, holes, 4)
	for i := range capped {
		if capped[i].Test.Name != legacy[i].Test.Name {
			t.Errorf("unit %d: capped history %q != legacy saturated ramp %q", i, capped[i].Test.Name, legacy[i].Test.Name)
		}
	}
}

func TestHistoryOfAttributesPerRecipe(t *testing.T) {
	traj := &core.ClosureTrajectory{Iterations: []core.ClosureIteration{
		{Units: []core.ClosureUnit{
			{Test: "closure/pkt_len@abc", NewBins: 0},
			{Test: "closure/union@s1", NewBins: 2},
		}},
		{Units: []core.ClosureUnit{
			{Test: "closure/pkt_len@def", NewBins: 0},
			{Test: "closure/union@s2", NewBins: 0},
			{Test: "smoke", NewBins: 0}, // foreign name: ignored
		}},
	}}
	h := HistoryOf(traj)
	if len(h) != 2 {
		t.Fatalf("history has %d slugs, want 2: %v", len(h), h)
	}
	if st := h["pkt_len"]; st.Attempts != 2 || st.Barren != 2 {
		t.Errorf("pkt_len = %+v, want {Attempts:2 Barren:2}", st)
	}
	if st := h["union"]; st.Attempts != 2 || st.Barren != 1 {
		t.Errorf("union = %+v, want {Attempts:2 Barren:1} (yield resets the streak)", st)
	}
}
