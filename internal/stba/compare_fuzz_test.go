package stba

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"crve/internal/bca"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// quietDefs declares one port, p, of two wires.
const quietDefs = "$timescale 1ns $end\n$scope module tb $end\n$scope module p $end\n" +
	"$var wire 1 ! req $end\n$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"

// quietDump is 13 lines whose last change is at #18446744073709551610: about
// 1.8·10^18 cycles in which nothing changes after the first.
const quietDump = quietDefs + "#0\n1!\n1\"\n#18446744073709551610\n0!\n"

// TestCompareLongQuietDumpReturns checks Compare and SignalRates cost what
// the dumps change, not what they span: a dump compared with itself used to
// walk every one of its 1.8·10^18 cycles.
func TestCompareLongQuietDumpReturns(t *testing.T) {
	f, err := vcd.Parse(bytes.NewReader([]byte(quietDump)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rep, err := Compare(f, f, nil)
		if err == nil && (len(rep.Ports) != 1 || rep.Ports[0].Aligned != f.Cycles() || !rep.AllPass()) {
			err = fmt.Errorf("report %+v", rep.Ports)
		}
		if err == nil {
			var rates []SignalRate
			rates, err = SignalRates(f, f, "p")
			if err == nil && (len(rates) != 2 || rates[0].Aligned != f.Cycles()) {
				err = fmt.Errorf("signal rates %+v", rates)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("comparing a quiet dump of 1.8·10^18 cycles did not return within 10 s")
	}
}

// FuzzCompare compares two arbitrary dumps. Compare and SignalRates must
// never panic, and when both dumps span at most 4,096 cycles they must
// report what the per-cycle walk below reports. The corpus is seeded with
// the recordings of clean and bugged runs of unequal length, re-served as
// VCD text.
func FuzzCompare(f *testing.F) {
	// Small seeds keep the fuzzer's minimization of a new input short.
	cfg := nodeCfg()
	cfg.NumTgt, cfg.Map = 1, stbus.UniformMap(1, 0x1000, 0x1000)
	record := func(bugs *bca.Bugs, cycles int) []byte {
		v := newObservedView(f, cfg, bugs, 5)
		if err := v.sm.Run(cycles); err != nil {
			f.Fatal(err)
		}
		return v.rc.Recording().VCD()
	}
	rtlRun, bcaRun := record(nil, 40), record(&bca.Bugs{LRUInit: true}, 30)
	f.Add(rtlRun, rtlRun)
	f.Add(rtlRun, bcaRun)
	f.Add(bcaRun, rtlRun)
	f.Add([]byte(quietDefs+"#0\n0!\n0\"\n#50\n1!\n1\"\n"), []byte(quietDefs+"#0\n0!\n1\"\n#34\n1!\n#51\n0\"\n"))
	f.Add([]byte(quietDump), []byte(quietDump))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, err := vcd.Parse(bytes.NewReader(da))
		if err != nil {
			return
		}
		b, err := vcd.Parse(bytes.NewReader(db))
		if err != nil {
			return
		}
		got, err := Compare(a, b, nil)
		var rates [][]SignalRate
		if err == nil {
			for _, p := range got.Ports {
				r, err := SignalRates(a, b, p.Port)
				if err != nil {
					t.Fatalf("SignalRates(%q): %v after Compare accepted the port", p.Port, err)
				}
				rates = append(rates, r)
			}
		}
		if a.Cycles() > 4096 || b.Cycles() > 4096 {
			return
		}
		want, wantErr := compareEachCycle(a, b, nil)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Compare error %v, per-cycle walk %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Compare reports\n%+v\nthe per-cycle walk\n%+v", got, want)
		}
		for i := range rates {
			port := want.Ports[i].Port
			if wantRates, _ := signalRatesEachCycle(a, b, port); !reflect.DeepEqual(rates[i], wantRates) {
				t.Fatalf("SignalRates(%q) = %+v, the per-cycle walk %+v", port, rates[i], wantRates)
			}
		}
	})
}

// compareEachCycle is Compare judged cycle by cycle: the reference that
// FuzzCompare holds Compare to.
func compareEachCycle(a, b *vcd.File, ports []string) (*Report, error) {
	if ports == nil {
		ports = DiscoverPortsUnion(a, b)
	}
	if len(ports) == 0 {
		return nil, fmt.Errorf("stba: no STBus ports found")
	}
	ca, cb := a.Cycles(), b.Cycles()
	shared, span := compareWindow(ca, cb)
	rep := &Report{}
	for _, port := range ports {
		names, err := portSignals(a, b, port)
		if err != nil {
			return nil, err
		}
		pa := PortAlignment{Port: port, Signals: len(names), Cycles: span, CyclesA: ca, CyclesB: cb, FirstDivergence: -1}
		for cyc := uint64(0); cyc < shared; cyc++ {
			time := cyc * vcd.TimePerCycle
			ok := true
			for _, n := range names {
				if !a.ValueAt(a.VarIndex(n), time).Equal(b.ValueAt(b.VarIndex(n), time)) {
					ok = false
					if pa.FirstDivergence < 0 {
						pa.FirstDiverging = append(pa.FirstDiverging, n)
						continue
					}
					break
				}
			}
			if ok {
				pa.Aligned++
			} else if pa.FirstDivergence < 0 {
				pa.FirstDivergence = int64(cyc)
			}
		}
		if shared < span && pa.FirstDivergence < 0 {
			pa.FirstDivergence = int64(shared)
		}
		rep.Ports = append(rep.Ports, pa)
	}
	return rep, nil
}

// signalRatesEachCycle is SignalRates judged cycle by cycle.
func signalRatesEachCycle(a, b *vcd.File, port string) ([]SignalRate, error) {
	shared, span := compareWindow(a.Cycles(), b.Cycles())
	names, err := portSignals(a, b, port)
	if err != nil {
		return nil, err
	}
	var out []SignalRate
	for _, n := range names {
		sr := SignalRate{Signal: n, Cycles: span}
		for cyc := uint64(0); cyc < shared; cyc++ {
			time := cyc * vcd.TimePerCycle
			if a.ValueAt(a.VarIndex(n), time).Equal(b.ValueAt(b.VarIndex(n), time)) {
				sr.Aligned++
			}
		}
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rate() < out[j].Rate() })
	return out, nil
}
