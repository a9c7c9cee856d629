package stba

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"crve/internal/bca"
	"crve/internal/catg"
	"crve/internal/stbus"
	"crve/internal/vcd"
)

// quietDefs declares one port, p, of two wires.
const quietDefs = "$timescale 1ns $end\n$scope module tb $end\n$scope module p $end\n" +
	"$var wire 1 ! req $end\n$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"

// quietDump is 13 lines whose last change is at #18446744073709551610: about
// 1.8·10^18 cycles in which nothing changes after the first.
const quietDump = quietDefs + "#0\n1!\n1\"\n#18446744073709551610\n0!\n"

// portLeaves are the 18 signals of a port, in the order ExtractTransactions
// reads them.
var portLeaves = []string{"req", "gnt", "opc", "add", "data", "be", "eop", "lck", "tid", "src", "pri",
	"r_req", "r_gnt", "r_opc", "r_data", "r_eop", "r_tid", "r_src"}

// portDump declares port p with its 18 leaves, the i-th under the id code
// '!'+i, data and r_data 32 bits wide and the rest 1 bit, followed by body.
func portDump(body string) string {
	var sb strings.Builder
	sb.WriteString("$timescale 1ns $end\n$scope module tb $end\n$scope module p $end\n")
	for i, leaf := range portLeaves {
		w := 1
		if leaf == "data" || leaf == "r_data" {
			w = 32
		}
		fmt.Fprintf(&sb, "$var wire %d %c %s $end\n", w, '!'+i, leaf)
	}
	sb.WriteString("$upscope $end\n$upscope $end\n$enddefinitions $end\n")
	sb.WriteString(body)
	return sb.String()
}

// quietPortDump is a port that stays idle for about 1.8·10^18 cycles.
var quietPortDump = portDump("#0\n0!\n#18446744073709551610\n0!\n")

// aliasedDefs declares p.req and p.lck under one id code, as a simulator
// aliases a port and the net it drives; separateDefs gives each its own.
const (
	aliasedDefs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n$var wire 1 ! lck $end\n" +
		"$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	separateDefs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n$var wire 1 # lck $end\n" +
		"$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	aliasedDump  = aliasedDefs + "#0\n0!\n0\"\n#10\n1!\n#20\n0!\n#30\n1\"\n"
	separateDump = separateDefs + "#0\n0!\n0#\n0\"\n#10\n1!\n1#\n#20\n0!\n0#\n#30\n1\"\n"
)

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

// TestExtractLongQuietDumpReturns checks ExtractTransactions costs what the
// dump changes, not what it spans: it used to read all 18 leaves of the
// port at every one of an idle dump's 1.8·10^18 cycles.
func TestExtractLongQuietDumpReturns(t *testing.T) {
	f, err := vcd.Parse(strings.NewReader(quietPortDump))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		txs, err := ExtractTransactions(f, "p", stbus.Type3)
		if err == nil && len(txs) != 0 {
			err = fmt.Errorf("extracted %d transactions from an idle port", len(txs))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("extracting from a quiet dump of 1.8·10^18 cycles did not return within 10 s")
	}
}

// TestCompareAliasedCodes compares a dump that declares p.req and p.lck
// under one id code with the same values declared under two. Parse used to
// apply the shared code's changes to p.lck only, so p.req never rose and the
// pair aligned at 75.00 % (first divergence @1: p.req).
func TestCompareAliasedCodes(t *testing.T) {
	rep, err := Compare(parseText(t, aliasedDump), parseText(t, separateDump), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ports) != 1 || rep.Ports[0].Aligned != 4 || rep.Ports[0].Cycles != 4 || rep.Ports[0].FirstDivergence != -1 {
		t.Errorf("aliased and separate codes with equal values must align fully:\n%s", rep)
	}
}

// FuzzCompare compares two arbitrary dumps. Compare, SignalRates and
// ExtractTransactions must never panic, and when both dumps span at most
// 4,096 cycles they must report what the per-cycle walks below report:
// Compare with discovered ports and with an explicit list (each dump's
// scopes in reverse declaration order), SignalRates on every port Compare
// reports, and ExtractTransactions on every port of either dump that
// carries the 18 leaves. The corpus is seeded with the recordings of clean
// and bugged runs of unequal length, re-served as VCD text.
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
	f.Add([]byte(aliasedDump), []byte(separateDump))
	f.Add([]byte(quietPortDump), []byte(portDump("#0\n1!\n1\"\n#5\nb101 %\n#20\n0!\n")))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, err := vcd.Parse(bytes.NewReader(da))
		if err != nil {
			return
		}
		b, err := vcd.Parse(bytes.NewReader(db))
		if err != nil {
			return
		}
		explicit := reverseScopes(a)
		got, err := Compare(a, b, nil)
		gotExplicit, errExplicit := Compare(a, b, explicit)
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
		wantExplicit, wantErrExplicit := compareEachCycle(a, b, explicit)
		if fmt.Sprint(errExplicit) != fmt.Sprint(wantErrExplicit) {
			t.Fatalf("Compare(%q) error %v, per-cycle walk %v", explicit, errExplicit, wantErrExplicit)
		}
		if !reflect.DeepEqual(gotExplicit, wantExplicit) {
			t.Fatalf("Compare(%q) reports\n%+v\nthe per-cycle walk\n%+v", explicit, gotExplicit, wantExplicit)
		}
		for i := range rates {
			port := want.Ports[i].Port
			if wantRates, _ := signalRatesEachCycle(a, b, port); !reflect.DeepEqual(rates[i], wantRates) {
				t.Fatalf("SignalRates(%q) = %+v, the per-cycle walk %+v", port, rates[i], wantRates)
			}
		}
		for _, d := range []*vcd.File{a, b} {
			for _, port := range discoverPorts(d) {
				if slices.ContainsFunc(portLeaves, func(leaf string) bool { return d.VarIndex(port+"."+leaf) < 0 }) {
					continue
				}
				for _, typ := range []stbus.Type{stbus.Type1, stbus.Type2, stbus.Type3} {
					got, err := ExtractTransactions(d, port, typ)
					want, wantErr := extractEachCycle(d, port, typ)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("ExtractTransactions(%q, %v) error %v, per-cycle walk %v", port, typ, err, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ExtractTransactions(%q, %v) = %v, the per-cycle walk %v", port, typ, got, want)
					}
				}
			}
		}
	})
}

// reverseScopes lists the scopes of f's variables (each name up to its last
// dot) once each, in reverse declaration order: an explicit port list that
// is not sorted and may name scopes that are not ports.
func reverseScopes(f *vcd.File) []string {
	var scopes []string
	for _, v := range f.Vars {
		if dot := strings.LastIndexByte(v.Name, '.'); dot >= 0 && !slices.Contains(scopes, v.Name[:dot]) {
			scopes = append(scopes, v.Name[:dot])
		}
	}
	slices.Reverse(scopes)
	return scopes
}

// discoverPorts finds the STBus port prefixes over the union of the dumps:
// every scope that contains both a "req" and a "gnt" wire in any of them.
func discoverPorts(files ...*vcd.File) []string {
	seen := map[string]int{}
	for _, f := range files {
		for _, v := range f.Vars {
			dot := strings.LastIndexByte(v.Name, '.')
			if dot < 0 {
				continue
			}
			prefix, leaf := v.Name[:dot], v.Name[dot+1:]
			if leaf == "req" {
				seen[prefix] |= 1
			}
			if leaf == "gnt" {
				seen[prefix] |= 2
			}
		}
	}
	var ports []string
	for p, mask := range seen {
		if mask == 3 {
			ports = append(ports, p)
		}
	}
	sort.Strings(ports)
	return ports
}

// portSignals returns the sorted union of signal names under port across
// both dumps, erroring on a signal present in only one of them.
func portSignals(a, b *vcd.File, port string) ([]string, error) {
	seen := map[string]bool{}
	for _, f := range []*vcd.File{a, b} {
		for _, v := range f.Vars {
			if strings.HasPrefix(v.Name, port+".") {
				seen[v.Name] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a.VarIndex(n) < 0 {
			return nil, fmt.Errorf("stba: signal %q missing from first dump", n)
		}
		if b.VarIndex(n) < 0 {
			return nil, fmt.Errorf("stba: signal %q missing from second dump", n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("stba: port %q has no signals", port)
	}
	return names, nil
}

// compareEachCycle is Compare judged cycle by cycle, with its own port
// discovery and signal pairing: the reference that FuzzCompare and the
// observer tests hold Compare and the observer to.
func compareEachCycle(a, b *vcd.File, ports []string) (*Report, error) {
	if ports == nil {
		ports = discoverPorts(a, b)
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

// extractEachCycle is ExtractTransactions read cycle by cycle.
func extractEachCycle(f *vcd.File, prefix string, typ stbus.Type) ([]*stbus.Transaction, error) {
	idx := make([]int, len(portLeaves))
	for k, leaf := range portLeaves {
		if idx[k] = f.VarIndex(prefix + "." + leaf); idx[k] < 0 {
			return nil, fmt.Errorf("stba: port %q lacks signal %q", prefix, leaf)
		}
	}
	cfg := stbus.PortConfig{Type: typ, DataBits: f.Vars[idx[4]].Width}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("stba: port %q: %w", prefix, err)
	}
	asm := catg.NewTxAssembler(cfg, -1, false, nil)
	for cyc := uint64(0); cyc < f.Cycles(); cyc++ {
		v := func(k int) uint64 { return f.ValueAt(idx[k], cyc*vcd.TimePerCycle).Uint64() }
		on := func(k int) bool { return f.ValueAt(idx[k], cyc*vcd.TimePerCycle).Bool() }
		if on(0) && on(1) {
			asm.ReqCell(cyc, stbus.Cell{Opc: stbus.Opcode(v(2)), Addr: v(3), Data: f.ValueAt(idx[4], cyc*vcd.TimePerCycle),
				BE: v(5), EOP: on(6), Lck: on(7), TID: uint8(v(8)), Src: uint8(v(9)), Pri: uint8(v(10))})
		}
		if on(11) && on(12) {
			asm.RespCell(cyc, stbus.RespCell{ROpc: uint8(v(13)), Data: f.ValueAt(idx[14], cyc*vcd.TimePerCycle),
				EOP: on(15), TID: uint8(v(16)), Src: uint8(v(17))})
		}
	}
	return asm.Completed, nil
}
