package stba_test

import (
	"reflect"
	"testing"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/core"
	"crve/internal/regress"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

// TestExtractTransactionsMatchesMonitor pins the offline analyzer to the
// bench: on every initiator port of a recorded BCA run of error_paths under
// ErrRespTIDZero, the transactions extracted from the dump equal, field by
// field and payloads included, what the bench's catg.TxAssembler on that
// port completed live. The bug answers error responses with the wrong tid, so the run has
// orphan responses as well as load and store payloads. A dump does not name
// a port's role or routing, so only Initiator and Target are left out.
func TestExtractTransactionsMatchesMonitor(t *testing.T) {
	cfg := regress.StandardMatrix()[21] // Type 3, 64-bit little-endian, 3 initiators
	test := testcases.ErrorPaths()
	const seed = 1
	sm := sim.New()
	dut, err := core.BuildDUT(sim.Root(sm), cfg, core.BCAView, bca.Bugs{ErrRespTIDZero: true})
	if err != nil {
		t.Fatal(err)
	}
	rc := vcd.NewRecorder("tb")
	var bfms []*catg.InitiatorBFM
	for i, p := range dut.InitPorts() {
		bfms = append(bfms, catg.NewInitiatorBFM(sm, p, catg.GenerateOps(cfg, test.Traffic, i, seed)))
		for _, s := range p.Signals() {
			rc.Declare(s)
		}
	}
	// The bench's monitors: an env over the initiator ports, fed each
	// port's sample at the end of every cycle.
	inits := dut.InitPorts()
	names := make([]string, len(inits))
	for i, p := range inits {
		names[i] = p.Name
	}
	env := catg.NewEnv(cfg, test.Traffic, names)
	samples := make([]catg.PortSample, len(inits))
	sm.AtCycleEnd(func() {
		for i, p := range inits {
			samples[i] = catg.SamplePort(p)
		}
		env.Observe(samples)
	})
	mons := env.Asm
	for tg, p := range dut.TgtPorts() {
		catg.NewTargetBFM(sm, p, test.Target, catg.TargetSeed(seed, tg))
	}
	rc.Attach(sm)
	done := func() bool {
		for _, b := range bfms {
			if !b.Done() {
				return false
			}
		}
		return true
	}
	if err := sm.RunUntil(done, 20000); err != nil {
		t.Fatal(err)
	}
	if err := sm.Run(5); err != nil {
		t.Fatal(err)
	}
	f := rc.Recording().File()
	orphans, payloads := 0, 0
	for i, p := range dut.InitPorts() {
		got, err := stba.ExtractTransactions(f, p.Name, cfg.Port.Type)
		if err != nil {
			t.Fatal(err)
		}
		want := mons[i].Completed
		if len(got) != len(want) {
			t.Fatalf("%s: extracted %d transactions, monitor completed %d", p.Name, len(got), len(want))
		}
		for k, w := range want {
			w := *w
			if w.Initiator < 0 {
				orphans++
			}
			if len(w.WriteData) > 0 || len(w.ReadData) > 0 {
				payloads++
			}
			w.Initiator, w.Target = -1, -1
			if !reflect.DeepEqual(got[k], &w) {
				t.Errorf("%s transaction %d: extracted %+v, monitor %+v", p.Name, k, *got[k], w)
			}
		}
	}
	if orphans == 0 || payloads == 0 {
		t.Errorf("run had %d orphan responses and %d payloads; the test needs both", orphans, payloads)
	}
}
