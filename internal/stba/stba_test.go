package stba

import (
	"bytes"
	"strings"
	"testing"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

func nodeCfg() nodespec.Config {
	return nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}.WithDefaults()
}

// runView runs one DUT view under the shared CATG bench, dumping the node's
// ports to a VCD buffer.
func runView(t *testing.T, cfg nodespec.Config, bugs *bca.Bugs, seed int64, cycles int) *vcd.File {
	t.Helper()
	sm := sim.New()
	var initPorts, tgtPorts []*stbus.Port
	if bugs == nil {
		n, err := rtl.NewNode(sim.Root(sm), cfg)
		if err != nil {
			t.Fatal(err)
		}
		initPorts, tgtPorts = n.Init, n.Tgt
	} else {
		n, err := bca.NewNode(sim.Root(sm), cfg, *bugs)
		if err != nil {
			t.Fatal(err)
		}
		initPorts, tgtPorts = n.Init, n.Tgt
	}
	var buf bytes.Buffer
	wr := vcd.NewWriter(&buf, "tb")
	var bfms []*catg.InitiatorBFM
	for i, p := range initPorts {
		ops := catg.GenerateOps(cfg, catg.TrafficConfig{Ops: 25, UnmappedPct: 4, IdlePct: 10}, i, seed)
		bfms = append(bfms, catg.NewInitiatorBFM(sm, p, ops))
		for _, s := range p.Signals() {
			wr.Declare(s)
		}
	}
	for ti, p := range tgtPorts {
		catg.NewTargetBFM(sm, p, catg.TargetConfig{MinLatency: 1, MaxLatency: 5, GntGapPct: 15},
			seed*17+int64(ti))
		for _, s := range p.Signals() {
			wr.Declare(s)
		}
	}
	wr.Attach(sm)
	if err := sm.Run(cycles); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := vcd.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAlignmentBugFreeIs100(t *testing.T) {
	cfg := nodeCfg()
	fr := runView(t, cfg, nil, 5, 1500)
	fb := runView(t, cfg, &bca.Bugs{}, 5, 1500)
	rep, err := Compare(fr, fb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ports) != 4 {
		t.Fatalf("%d ports discovered, want 4\n%s", len(rep.Ports), rep)
	}
	if !rep.AllPass() {
		t.Errorf("bug-free comparison below sign-off:\n%s", rep)
	}
	if rep.MinRate() != 100 {
		t.Errorf("bug-free views should align 100%%, got %.2f\n%s", rep.MinRate(), rep)
	}
}

func TestAlignmentDropsWithBug(t *testing.T) {
	cfg := nodeCfg()
	fr := runView(t, cfg, nil, 5, 1500)
	fb := runView(t, cfg, &bca.Bugs{LRUInit: true}, 5, 1500)
	rep, err := Compare(fr, fb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinRate() == 100 {
		t.Errorf("bugged comparison should diverge:\n%s", rep)
	}
	found := false
	for _, p := range rep.Ports {
		if p.FirstDivergence >= 0 {
			found = true
			if len(p.FirstDiverging) == 0 {
				t.Errorf("port %s diverged at %d but no diverging signals listed",
					p.Port, p.FirstDivergence)
			}
		}
	}
	if !found {
		t.Error("no first-divergence cycle recorded")
	}
}

// comparedPorts returns the ports Compare discovers when it compares f with
// itself.
func comparedPorts(t *testing.T, f *vcd.File) []string {
	t.Helper()
	rep, err := Compare(f, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ports []string
	for _, p := range rep.Ports {
		ports = append(ports, p.Port)
	}
	return ports
}

func TestDiscoverPorts(t *testing.T) {
	f := runView(t, nodeCfg(), nil, 9, 200)
	ports := comparedPorts(t, f)
	want := []string{"node.init0", "node.init1", "node.tgt0", "node.tgt1"}
	if len(ports) != len(want) {
		t.Fatalf("ports = %v", ports)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Fatalf("ports = %v, want %v", ports, want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	f := runView(t, nodeCfg(), nil, 9, 100)
	empty := &vcd.File{}
	if _, err := Compare(empty, f, nil); err == nil {
		t.Error("comparing empty dump should fail")
	}
	if _, err := Compare(f, empty, []string{"node.init0"}); err == nil {
		t.Error("missing signals in second dump should fail")
	}
	if _, err := Compare(f, f, []string{"nosuch.port"}); err == nil {
		t.Error("unknown port should fail")
	}
}

func TestSelfCompareIsAligned(t *testing.T) {
	f := runView(t, nodeCfg(), nil, 3, 800)
	rep, err := Compare(f, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinRate() != 100 || !rep.AllPass() {
		t.Errorf("self comparison must be 100%%:\n%s", rep)
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{Ports: []PortAlignment{
		{Port: "node.init0", Signals: 18, Cycles: 1000, Aligned: 1000, FirstDivergence: -1},
		{Port: "node.init1", Signals: 18, Cycles: 1000, Aligned: 950, FirstDivergence: 77},
	}}
	s := rep.String()
	for _, want := range []string{"PASS", "FAIL", "95.00%", "@77"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if rep.AllPass() {
		t.Error("report with 95% port should not pass")
	}
	if rep.MinRate() != 95 {
		t.Errorf("min rate %f", rep.MinRate())
	}
}

func TestExtractTransactions(t *testing.T) {
	cfg := nodeCfg()
	f := runView(t, cfg, nil, 21, 2000)
	txs, err := ExtractTransactions(f, "node.init0", cfg.Port.Type)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) == 0 {
		t.Fatal("no transactions extracted")
	}
	for _, tr := range txs {
		if !tr.Opc.Valid() {
			t.Errorf("invalid opcode in %v", tr)
		}
		if tr.EndCycle < tr.ReqEndCycle {
			t.Errorf("bad cycle stamps in %v", tr)
		}
	}
	// The waveform-extracted stream must agree with a live monitor: compare
	// against the known op count (25 ops issued, all must complete in 2000
	// cycles).
	if len(txs) != 25 {
		t.Errorf("extracted %d transactions, want 25", len(txs))
	}
	if _, err := ExtractTransactions(f, "nosuch", cfg.Port.Type); err == nil {
		t.Error("unknown port should fail")
	}
}

func TestPortAlignmentRateEdges(t *testing.T) {
	if (PortAlignment{}).Rate() != 100 {
		t.Error("empty alignment should rate 100")
	}
	pa := PortAlignment{Cycles: 100, Aligned: 99}
	if !pa.Pass() {
		t.Error("99% should pass the sign-off")
	}
	pa.Aligned = 98
	if pa.Pass() {
		t.Error("98% should fail the sign-off")
	}
}

func TestSignalRatesDrillDown(t *testing.T) {
	cfg := nodeCfg()
	fr := runView(t, cfg, nil, 5, 1200)
	fb := runView(t, cfg, &bca.Bugs{LRUInit: true}, 5, 1200)
	rates, err := SignalRates(fr, fb, "node.init0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 18 {
		t.Fatalf("%d signal rates, want 18", len(rates))
	}
	// Sorted worst-first, and at least one signal must diverge.
	if rates[0].Rate() > rates[len(rates)-1].Rate() {
		t.Error("rates not sorted ascending")
	}
	if rates[0].Rate() == 100 {
		t.Error("drill-down on a diverging port should show sub-100% signals")
	}
	if _, err := SignalRates(fr, fb, "nosuch"); err == nil {
		t.Error("unknown port should fail")
	}
	if _, err := SignalRates(fr, &vcd.File{}, "node.init0"); err == nil {
		t.Error("missing signals should fail")
	}
}

// parseText parses a hand-written VCD dump used by the regression tests for
// the sign-off holes.
func parseText(t *testing.T, text string) *vcd.File {
	t.Helper()
	f, err := vcd.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// twoPortDefs declares tb.p.{req,gnt} — the minimal discoverable STBus port.
const twoPortDefs = `$scope module tb $end
$scope module p $end
$var wire 1 ! req $end
$var wire 1 " gnt $end
$upscope $end
$upscope $end
$enddefinitions $end
`

// TestCompareChargesShortDumpTail is the regression test for the truncation
// hole: Compare used to clip both dumps to the shared window, so a BCA that
// stalled or drained early looked 100 % aligned. The tail the short dump
// does not cover must now count as misaligned.
func TestCompareChargesShortDumpTail(t *testing.T) {
	// A runs 11 cycles (EndTime 100); B is identical through time 50 but
	// records nothing after — 6 cycles.
	long := parseText(t, twoPortDefs+"#0\n$dumpvars\n0!\n0\"\n$end\n#10\n1!\n#50\n0!\n#100\n1\"\n")
	short := parseText(t, twoPortDefs+"#0\n$dumpvars\n0!\n0\"\n$end\n#10\n1!\n#50\n0!\n")
	if long.Cycles() != 11 || short.Cycles() != 6 {
		t.Fatalf("dump cycles = %d, %d; want 11, 6", long.Cycles(), short.Cycles())
	}
	rep, err := Compare(long, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ports) != 1 {
		t.Fatalf("ports: %+v", rep.Ports)
	}
	pa := rep.Ports[0]
	if pa.Cycles != 11 || pa.CyclesA != 11 || pa.CyclesB != 6 {
		t.Errorf("cycles = %d (a %d, b %d), want 11 (11, 6)", pa.Cycles, pa.CyclesA, pa.CyclesB)
	}
	if pa.Aligned != 6 {
		t.Errorf("aligned = %d, want 6 (shared window only)", pa.Aligned)
	}
	if pa.FirstDivergence != 6 || len(pa.FirstDiverging) != 0 {
		t.Errorf("first divergence = %d %v, want 6 (first uncovered cycle, no signal list)",
			pa.FirstDivergence, pa.FirstDiverging)
	}
	if pa.Pass() {
		t.Errorf("short-stopping dump must fail sign-off, got %.2f%%", pa.Rate())
	}
	// Same accounting in both directions and in the drill-down view.
	rev, err := Compare(short, long, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Ports[0].Aligned != 6 || rev.Ports[0].Cycles != 11 {
		t.Errorf("reversed compare: %+v", rev.Ports[0])
	}
	rates, err := SignalRates(long, short, "p")
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rates {
		if sr.Cycles != 11 || sr.Aligned != 6 {
			t.Errorf("signal %s: %d/%d, want 6/11", sr.Signal, sr.Aligned, sr.Cycles)
		}
	}
}

// TestDiscoverPortsUnion is the regression test for asymmetric discovery: a
// port or signal present only in the BCA dump used to be silently ignored.
func TestDiscoverPortsUnion(t *testing.T) {
	onePort := parseText(t, twoPortDefs+"#0\n$dumpvars\n0!\n0\"\n$end\n")
	twoPorts := parseText(t, `$scope module tb $end
$scope module p $end
$var wire 1 ! req $end
$var wire 1 " gnt $end
$upscope $end
$scope module q $end
$var wire 1 # req $end
$var wire 1 $ gnt $end
$upscope $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
0"
0#
0$
$end
`)
	if got := comparedPorts(t, onePort); len(got) != 1 || got[0] != "p" {
		t.Fatalf("ports of onePort = %v", got)
	}
	if got := comparedPorts(t, twoPorts); len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Fatalf("ports of twoPorts = %v, want [p q]", got)
	}
	// With nil ports, Compare discovers over both dumps: it finds q in
	// either one and must report it as one-sided instead of silently
	// comparing only p.
	if _, err := Compare(onePort, twoPorts, nil); err == nil ||
		!strings.Contains(err.Error(), `"q.gnt" missing from first dump`) {
		t.Errorf("port only in second dump: err = %v", err)
	}
	if _, err := Compare(twoPorts, onePort, nil); err == nil ||
		!strings.Contains(err.Error(), `"q.gnt" missing from second dump`) {
		t.Errorf("port only in first dump: err = %v", err)
	}
	// An extra signal on a shared port is one-sided in either direction.
	extra := parseText(t, `$scope module tb $end
$scope module p $end
$var wire 1 ! req $end
$var wire 1 " gnt $end
$var wire 8 # data $end
$upscope $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
0"
b0 #
$end
`)
	if _, err := Compare(onePort, extra, []string{"p"}); err == nil ||
		!strings.Contains(err.Error(), "missing from first dump") {
		t.Errorf("extra signal in second dump: err = %v", err)
	}
	if _, err := Compare(extra, onePort, []string{"p"}); err == nil ||
		!strings.Contains(err.Error(), "missing from second dump") {
		t.Errorf("extra signal in first dump: err = %v", err)
	}
	if _, err := SignalRates(onePort, extra, "p"); err == nil {
		t.Error("SignalRates must reject one-sided signals too")
	}
}

// TestEmptyReportFailsSignoff is the regression test for the vacuous-pass
// hole: a zero-port report (e.g. rebuilt from a zero-value or truncated JSON
// record) used to return AllPass()==true and MinRate()==100.
func TestEmptyReportFailsSignoff(t *testing.T) {
	for name, rep := range map[string]*Report{"nil": nil, "empty": {}} {
		if rep.AllPass() {
			t.Errorf("%s report must not pass sign-off", name)
		}
		if got := rep.MinRate(); got != 0 {
			t.Errorf("%s report MinRate = %v, want 0", name, got)
		}
	}
}
