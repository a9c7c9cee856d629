package stba

import (
	"bytes"
	"encoding/json"
	"testing"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// observedView is one DUT view under the shared CATG bench with a text
// Writer and a compact Recorder attached to the node's port signals.
type observedView struct {
	sm    *sim.Simulator
	ports []*stbus.Port
	sigs  []*sim.Signal
	buf   bytes.Buffer
	wr    *vcd.Writer
	rc    *vcd.Recorder
}

// newObservedView builds the RTL view (bugs nil) or the BCA view under the
// bench, ready to step.
func newObservedView(t testing.TB, cfg nodespec.Config, bugs *bca.Bugs, seed int64) *observedView {
	t.Helper()
	v := &observedView{sm: sim.New()}
	var initPorts, tgtPorts []*stbus.Port
	if bugs == nil {
		n, err := rtl.NewNode(sim.Root(v.sm), cfg)
		if err != nil {
			t.Fatal(err)
		}
		initPorts, tgtPorts = n.Init, n.Tgt
	} else {
		n, err := bca.NewNode(sim.Root(v.sm), cfg, *bugs)
		if err != nil {
			t.Fatal(err)
		}
		initPorts, tgtPorts = n.Init, n.Tgt
	}
	v.ports = append(append(v.ports, initPorts...), tgtPorts...)
	v.wr = vcd.NewWriter(&v.buf, "tb")
	v.rc = vcd.NewRecorder("tb")
	for i, p := range initPorts {
		ops := catg.GenerateOps(cfg, catg.TrafficConfig{Ops: 25, UnmappedPct: 4, IdlePct: 10}, i, seed)
		catg.NewInitiatorBFM(v.sm, p, ops)
		v.sigs = append(v.sigs, p.Signals()...)
	}
	for ti, p := range tgtPorts {
		catg.NewTargetBFM(v.sm, p, catg.TargetConfig{MinLatency: 1, MaxLatency: 5, GntGapPct: 15},
			seed*17+int64(ti))
		v.sigs = append(v.sigs, p.Signals()...)
	}
	for _, s := range v.sigs {
		v.wr.Declare(s)
		v.rc.Declare(s)
	}
	v.wr.Attach(v.sm)
	v.rc.Attach(v.sm)
	return v
}

// dump returns the view's text VCD, parsed.
func (v *observedView) dump(t *testing.T) *vcd.File {
	t.Helper()
	if err := v.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := vcd.Parse(&v.buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runViewObserved runs one DUT view under the shared CATG bench with a text
// Writer, a compact Recorder, and — when ref is non-nil — a streaming
// Observer all attached to the same sampling points. It returns the parsed
// dump, the recording, and the observer.
func runViewObserved(t *testing.T, cfg nodespec.Config, bugs *bca.Bugs, seed int64, cycles int, ref *vcd.Recording) (*vcd.File, *vcd.Recording, *Observer) {
	t.Helper()
	v := newObservedView(t, cfg, bugs, seed)
	var obs *Observer
	if ref != nil {
		var err error
		if obs, err = NewObserver(ref, v.sigs); err != nil {
			t.Fatal(err)
		}
		obs.Attach(v.sm)
	}
	if err := v.sm.Run(cycles); err != nil {
		t.Fatal(err)
	}
	return v.dump(t), v.rc.Recording(), obs
}

// attachLive opens a Live reference's change journal on sm, which owns its
// signals, and registers an end-of-cycle hook that samples them, at the
// same points as vcd.Recorder.Attach.
func attachLive(l *Live, sm *sim.Simulator) {
	l.watch = sm.Watch(l.sigs)
	sm.AtCycleEnd(func() {
		l.sample(sm.Cycle() - 1)
	})
}

// newLiveObserver is NewObserver with a Live reference as the first dump:
// two simulations stepped in lockstep, with no recording made.
func newLiveObserver(ref *Live, sigs []*sim.Signal) (*Observer, error) {
	return observe(ref, sigs)
}

// runLockstepObserved steps the RTL and BCA views side by side, one RTL
// cycle then one BCA cycle, each for its own cycle count, with a Live
// reference on the RTL view and an Observer over it on the BCA view.
func runLockstepObserved(t *testing.T, cfg nodespec.Config, bugs bca.Bugs, seed int64, rtlCycles, bcaCycles int) *Observer {
	t.Helper()
	rv := newObservedView(t, cfg, nil, seed)
	bv := newObservedView(t, cfg, &bugs, seed)
	ref := NewLive(rv.sigs)
	attachLive(ref, rv.sm)
	obs, err := newLiveObserver(ref, bv.sigs)
	if err != nil {
		t.Fatal(err)
	}
	obs.Attach(bv.sm)
	for c := 0; c < rtlCycles || c < bcaCycles; c++ {
		if c < rtlCycles {
			if err := rv.sm.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if c < bcaCycles {
			if err := bv.sm.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return obs
}

// runLockstepJudged steps the RTL and BCA views side by side as
// runLockstepObserved does, reads every port's sample off its wires after
// each cycle, and judges the two views' samples.
func runLockstepJudged(t *testing.T, cfg nodespec.Config, bugs bca.Bugs, seed int64, rtlCycles, bcaCycles int) *Report {
	t.Helper()
	rv := newObservedView(t, cfg, nil, seed)
	bv := newObservedView(t, cfg, &bugs, seed)
	var names []string
	for _, p := range rv.ports {
		names = append(names, p.Name)
	}
	j := NewJudge(names)
	a, b := make([]catg.PortSample, len(names)), make([]catg.PortSample, len(names))
	step := func(v *observedView, samples []catg.PortSample) {
		if err := v.sm.Step(); err != nil {
			t.Fatal(err)
		}
		for k, p := range v.ports {
			samples[k] = catg.SamplePort(p)
		}
	}
	for c := 0; c < rtlCycles || c < bcaCycles; c++ {
		aOn, bOn := c < rtlCycles, c < bcaCycles
		if aOn {
			step(rv, a)
		}
		if bOn {
			step(bv, b)
		}
		j.Step(a, b, aOn, bOn)
	}
	return j.Report()
}

// checkObserverMatchesCompare asserts the streaming reports — against a
// recording, and against a Live reference stepped in lockstep — the Judge
// of the two views' port samples, and Compare over the two views' text VCD
// dumps are JSON-identical to the per-cycle walk over those dumps for the
// given scenario, and returns that report.
func checkObserverMatchesCompare(t *testing.T, cfg nodespec.Config, bugs bca.Bugs, seed int64, rtlCycles, bcaCycles int) *Report {
	t.Helper()
	fr, rec, _ := runViewObserved(t, cfg, nil, seed, rtlCycles, nil)
	fb, _, obs := runViewObserved(t, cfg, &bugs, seed, bcaCycles, rec)

	want, err := compareEachCycle(fr, fb, nil)
	if err != nil {
		t.Fatal(err)
	}
	compared, err := Compare(fr, fb, nil)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	for _, c := range []struct {
		name string
		got  *Report
	}{
		{"recorded", obs.Report()},
		{"live", runLockstepObserved(t, cfg, bugs, seed, rtlCycles, bcaCycles).Report()},
		{"judge", runLockstepJudged(t, cfg, bugs, seed, rtlCycles, bcaCycles)},
		{"Compare", compared},
	} {
		gj, _ := json.Marshal(c.got)
		if !bytes.Equal(wj, gj) {
			t.Errorf("%s report differs from the per-cycle walk:\n  walk: %s\n%6s: %s", c.name, wj, c.name, gj)
		}
		if c.got.String() != want.String() {
			t.Errorf("%s: rendered reports differ:\n--- walk ---\n%s--- %s ---\n%s", c.name, want.String(), c.name, c.got.String())
		}
	}
	return want
}

func TestObserverMatchesCompareBugFree(t *testing.T) {
	checkObserverMatchesCompare(t, nodeCfg(), bca.Bugs{}, 5, 1500, 1500)
}

func TestObserverMatchesCompareBugged(t *testing.T) {
	checkObserverMatchesCompare(t, nodeCfg(), bca.Bugs{LRUInit: true}, 5, 1500, 1500)
}

func TestObserverMatchesCompareShortRun(t *testing.T) {
	// The live run stops early: the tail must be charged exactly as Compare
	// charges a short dump.
	checkObserverMatchesCompare(t, nodeCfg(), bca.Bugs{}, 7, 1500, 900)
	// And the reference can be the short side too.
	checkObserverMatchesCompare(t, nodeCfg(), bca.Bugs{LRUInit: true}, 7, 900, 1500)
}

// TestObserverMatchesCompareEveryBug: the observer re-compares only the
// pairs whose sides changed, so each seeded bug's divergence pattern —
// ports that misalign and realign, several signals at once — must still
// produce Compare's report, also when the bugged view or the reference
// stops early.
func TestObserverMatchesCompareEveryBug(t *testing.T) {
	t2 := nodeCfg()
	t2.Port.Type = stbus.Type2
	for _, row := range []struct {
		name          string
		cfg           nodespec.Config
		bugs          bca.Bugs
		rtl, bca      int
		wantDiverging bool
	}{
		{"chunk-lck", nodeCfg(), bca.Bugs{ChunkLckIgnored: true}, 1500, 1500, false},
		{"pipe-off-by-one", nodeCfg(), bca.Bugs{PipeOffByOne: true}, 1500, 1500, true},
		{"err-resp-tid-zero", nodeCfg(), bca.Bugs{ErrRespTIDZero: true}, 1500, 1500, true},
		{"t2-order", t2, bca.Bugs{T2OrderIgnored: true}, 1500, 1500, true},
		// The traffic ends near cycle 120: these runs stop inside it.
		{"bugged-short-bca", nodeCfg(), bca.Bugs{PipeOffByOne: true}, 1500, 80, true},
		{"bugged-short-rtl", t2, bca.Bugs{T2OrderIgnored: true}, 90, 1500, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			rep := checkObserverMatchesCompare(t, row.cfg, row.bugs, 11, row.rtl, row.bca)
			t.Logf("min rate %.2f%% cycles %d/%d", rep.MinRate(), rep.Ports[0].CyclesA, rep.Ports[0].CyclesB)
			if row.wantDiverging && rep.MinRate() == 100 {
				t.Errorf("no port diverged, so the row does not exercise re-alignment:\n%s", rep)
			}
		})
	}
}

func TestObserverRecordingRoundTripVCD(t *testing.T) {
	// The recording captured alongside the observer re-serves the exact VCD
	// text the Writer produced, so the compact artifact loses nothing.
	cfg := nodeCfg()
	sm := sim.New()
	n, err := rtl.NewNode(sim.Root(sm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	wr := vcd.NewWriter(&buf, "tb")
	rc := vcd.NewRecorder("tb")
	for i, p := range n.Init {
		ops := catg.GenerateOps(cfg, catg.TrafficConfig{Ops: 10, IdlePct: 10}, i, 3)
		catg.NewInitiatorBFM(sm, p, ops)
	}
	for ti, p := range n.Tgt {
		catg.NewTargetBFM(sm, p, catg.TargetConfig{MinLatency: 1, MaxLatency: 4}, int64(ti))
	}
	for _, p := range append(append([]*stbus.Port{}, n.Init...), n.Tgt...) {
		for _, s := range p.Signals() {
			wr.Declare(s)
			rc.Declare(s)
		}
	}
	wr.Attach(sm)
	rc.Attach(sm)
	if err := sm.Run(600); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rc.Recording().VCD(); !bytes.Equal(got, buf.Bytes()) {
		t.Error("Recording.VCD differs from Writer output on a DUT run")
	}
}

func TestObserverErrors(t *testing.T) {
	empty := vcd.NewRecorder("tb").Recording()
	if _, err := NewObserver(empty, nil); err == nil {
		t.Error("no ports should fail")
	}
	sm := sim.New()
	req := sm.Signal("p.req", 1)
	gnt := sm.Signal("p.gnt", 1)
	extra := sm.Signal("p.extra", 8)
	rc := vcd.NewRecorder("tb")
	rc.Declare(req)
	rc.Declare(gnt)
	rc.Attach(sm)
	if err := sm.Step(); err != nil {
		t.Fatal(err)
	}
	rec := rc.Recording()
	if _, err := NewObserver(rec, []*sim.Signal{req, gnt, extra}); err == nil {
		t.Error("live-only signal should fail (missing from first dump)")
	}
	if _, err := NewObserver(rec, []*sim.Signal{req}); err == nil {
		t.Error("recording-only signal should fail (missing from second dump)")
	}
	if obs, err := NewObserver(rec, []*sim.Signal{req, gnt}); err != nil {
		t.Errorf("symmetric signal sets must construct: %v", err)
	} else if rep := obs.Report(); rep.AllPass() {
		// Zero samples: one virtual all-zero live cycle against a one-cycle
		// recording; rates are defined, and nothing passes vacuously here
		// because both sides are all-zero and aligned — the report has ports.
		if len(rep.Ports) != 1 || rep.Ports[0].Cycles != 1 {
			t.Errorf("unexpected zero-sample report: %+v", rep.Ports)
		}
	}
}

// TestObserverZeroSamplesReadsCycleZero: an observed side that never
// samples still parses as one all-zero cycle, compared against the
// reference's cycle 0 — also when the reference is Live and has since moved
// on to other values.
func TestObserverZeroSamplesReadsCycleZero(t *testing.T) {
	sm := sim.New()
	req := sm.Signal("p.req", 1)
	gnt := sm.Signal("p.gnt", 1)
	sm.Seq("drive", func() { req.SetBool(sm.Cycle() == 0) })
	live := NewLive([]*sim.Signal{req, gnt})
	attachLive(live, sm)
	rc := vcd.NewRecorder("tb")
	rc.Declare(req)
	rc.Declare(gnt)
	rc.Attach(sm)
	if err := sm.Run(3); err != nil {
		t.Fatal(err)
	}

	other := sim.New()
	sigs := []*sim.Signal{other.Signal("p.req", 1), other.Signal("p.gnt", 1)}
	recObs, err := NewObserver(rc.Recording(), sigs)
	if err != nil {
		t.Fatal(err)
	}
	liveObs, err := newLiveObserver(live, sigs)
	if err != nil {
		t.Fatal(err)
	}
	want, got := recObs.Report(), liveObs.Report()
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Errorf("live report differs from recorded:\nrecorded: %s\n    live: %s", wj, gj)
	}
	if p := got.Ports[0]; p.FirstDivergence != 0 || len(p.FirstDiverging) != 1 || p.FirstDiverging[0] != "p.req" || p.Aligned != 0 {
		t.Errorf("zero-sample comparison did not read cycle 0: %+v", p)
	}
}

// glitchSim builds a cyclic unit in which g pulses and settles back to 0
// within every cycle (trig toggles each cycle, ack follows it one
// iteration later), so g is on the kernel's change journal every cycle
// without ever changing its value.
func glitchSim() (sm *sim.Simulator, g *sim.Signal) {
	sm = sim.New()
	trig, ack := sm.Bool("trig"), sm.Bool("ack")
	g = sm.Bool("p.g")
	sm.Seq("trig", func() { trig.SetBool(!trig.Bool()) })
	sm.CombOut("g", func() { g.SetBool(trig.Bool() != ack.Bool()) }, []*sim.Signal{g}, trig, ack)
	sm.CombOut("ack", func() { ack.SetBool(trig.Bool()) }, []*sim.Signal{ack}, trig, g)
	return sm, g
}

// TestLiveIgnoresSettledGlitch: a Live reference re-reads every noted
// signal and keeps only real changes, so a glitch neither moves the value
// nor extends the reference's cycle count.
func TestLiveIgnoresSettledGlitch(t *testing.T) {
	sm, g := glitchSim()
	live := NewLive([]*sim.Signal{g})
	attachLive(live, sm)
	if err := sm.Run(5); err != nil {
		t.Fatal(err)
	}
	vals, changed := live.advance(4)
	if len(changed) != 0 || vals[0].Bool() {
		t.Errorf("glitch reported as a change: changed %v, value %v", changed, vals[0])
	}
	if got := live.cycles(); got != 1 {
		t.Errorf("cycles() = %d, want 1: only the first sample is a change", got)
	}
}

// TestJudgeZeroSamplesReadsCycleZero: a view that never runs keeps the
// all-zero sample, so it reads as one all-zero cycle compared against the
// other view's cycle 0, as an observed side that never samples does; two
// views that never run align on that one cycle.
func TestJudgeZeroSamplesReadsCycleZero(t *testing.T) {
	j := NewJudge([]string{"p"})
	a, idle := []catg.PortSample{{Req: true}}, make([]catg.PortSample, 1)
	j.Step(a, idle, true, false)
	for i := 0; i < 2; i++ {
		j.Step(idle, idle, true, false)
	}
	p := j.Report().Ports[0]
	if p.FirstDivergence != 0 || len(p.FirstDiverging) != 1 || p.FirstDiverging[0] != "p.req" || p.Aligned != 0 ||
		p.CyclesA != 2 || p.CyclesB != 1 || p.Signals != catg.NumWires {
		t.Errorf("zero-sample judgement did not read cycle 0: %+v", p)
	}
	if p := NewJudge([]string{"p"}).Report().Ports[0]; p.Cycles != 1 || p.Aligned != 1 || p.FirstDivergence != -1 {
		t.Errorf("two views that never ran: %+v, want one aligned cycle", p)
	}
}
