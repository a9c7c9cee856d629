package catg

import (
	"encoding/json"
	"reflect"
	"testing"

	"crve/internal/bca"
	"crve/internal/sim"
	"crve/internal/stbus"
)

// envReport is everything an env reports at the end of a run.
type envReport struct {
	Transactions int
	Latencies    []uint64
	Violations   []Violation
	ScoreErrors  []string
	Completed    [][]stbus.Transaction
	Bins         string
}

func reportOf(e *Env) envReport {
	bins, err := json.Marshal(e.Coverage.Group)
	if err != nil {
		panic(err)
	}
	r := envReport{Transactions: e.Transactions(), Latencies: e.Latencies, Violations: e.Violations(),
		ScoreErrors: e.Scoreboard.Check(), Bins: string(bins)}
	for _, a := range e.Asm {
		var trs []stbus.Transaction
		for _, tr := range a.Completed {
			trs = append(trs, *tr)
		}
		r.Completed = append(r.Completed, trs)
	}
	return r
}

// TestEnvCloneObservesAlike records the port samples of a bugged BCA run,
// clones an env in the middle of the traffic, with packets pending and
// violations already flagged, and steps the clone and the original on the
// rest: each must report exactly what an env that saw the whole run
// reports, so neither shares a counter, a pending packet or a slice with
// the other.
func TestEnvCloneObservesAlike(t *testing.T) {
	cfg := nodeCfg(3, 2)
	sm := sim.New()
	n, err := bca.NewNode(sim.Root(sm), cfg, bca.Bugs{PipeOffByOne: true, ErrRespTIDZero: true})
	if err != nil {
		t.Fatal(err)
	}
	tc := TrafficConfig{Ops: 40, UnmappedPct: 10, ChunkPct: 10, IdlePct: 15, PriMax: 7}
	b := buildBench(sm, cfg, tc, 77, n.Init, n.Tgt)
	ports := append(append([]*stbus.Port(nil), n.Init...), n.Tgt...)
	var stream [][]PortSample
	sm.AtCycleEnd(func() {
		row := make([]PortSample, len(ports))
		for k, p := range ports {
			row[k] = SamplePort(p)
		}
		stream = append(stream, row)
	})
	b.run(t, 20000)
	want := reportOf(b.env)
	if len(want.Violations) == 0 || want.Transactions == 0 {
		t.Fatalf("the run must complete transactions and flag violations: %+v", want)
	}

	names := make([]string, len(ports))
	for k, p := range ports {
		names[k] = p.Name
	}
	half := len(stream) / 2
	orig := NewEnv(cfg, tc, names)
	for _, row := range stream[:half] {
		orig.Observe(row)
	}
	pending := 0
	for _, a := range orig.Asm {
		pending += len(a.pending)
	}
	if pending == 0 || len(orig.Violations()) == 0 {
		t.Fatalf("clone point has %d pending packets and %d violations; both must be nonzero", pending, len(orig.Violations()))
	}
	clone := orig.Clone()
	for _, e := range []*Env{clone, orig} {
		for _, row := range stream[half:] {
			e.Observe(row)
		}
	}
	for name, e := range map[string]*Env{"clone": clone, "original": orig} {
		if got := reportOf(e); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports differently from an env that saw the whole run:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestSampleMatchesWires drives a port with cells whose fields overflow
// their wires and holds Sample, built from the same values, to what
// SamplePort reads off the wires; Values and WireWidths to the port's
// signals in stbus.Port.Signals order; and two idle channels to zero.
func TestSampleMatchesWires(t *testing.T) {
	cfg := stbus.PortConfig{Type: stbus.Type3, DataBits: 16, AddrBits: 20}
	cell := stbus.Cell{Opc: stbus.ST2, Addr: 0xfff12346, Data: sim.BWords(^uint64(0), 7), BE: 0xff,
		EOP: true, Lck: true, TID: 9, Src: 3, Pri: 0xfe}
	resp := stbus.RespCell{ROpc: stbus.RespData, Data: sim.B64(0x1234567), EOP: true, TID: 9, Src: 3}
	rows := []struct{ req, gnt, rreq, rgnt bool }{
		{true, false, true, false}, {true, true, false, true}, {false, true, true, true}, {false, false, false, false},
	}
	sm := sim.New()
	p := stbus.NewPort(sim.Root(sm), "p", cfg)
	row := 0
	sm.Seq("drive", func() {
		r := rows[row]
		if r.req {
			p.DriveCell(cell)
		} else {
			p.IdleReq()
		}
		if r.rreq {
			p.DriveResp(resp)
		} else {
			p.IdleResp()
		}
		p.Gnt.SetBool(r.gnt)
		p.RGnt.SetBool(r.rgnt)
	})
	widths := WireWidths(cfg)
	for k, sig := range p.Signals() {
		if want := p.Name + "." + WireName(k); sig.Name() != want || sig.Width() != widths[k] {
			t.Errorf("wire %d: %s/%d bits, want %s/%d", k, sig.Name(), sig.Width(), want, widths[k])
		}
	}
	for ; row < len(rows); row++ {
		if err := sm.Step(); err != nil {
			t.Fatal(err)
		}
		r := rows[row]
		wired := SamplePort(p)
		if got := Sample(cfg, r.req, r.gnt, cell, r.rreq, r.rgnt, resp); got != wired {
			t.Errorf("row %d: Sample %+v, wires %+v", row, got, wired)
		}
		var vals [NumWires]sim.Bits
		wired.Values(vals[:])
		for k, sig := range p.Signals() {
			if !vals[k].Equal(sig.Get()) {
				t.Errorf("row %d: Values[%d] (%s) = %x, wire reads %x", row, k, sig.Name(), vals[k].Uint64(), sig.Get().Uint64())
			}
		}
	}
}
