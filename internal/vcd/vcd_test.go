package vcd

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"crve/internal/sim"
)

// buildCounterSim returns a simulator with a 1-bit toggle and an 8-bit
// counter, exercised by the round-trip tests.
func buildCounterSim() (*sim.Simulator, *sim.Signal, *sim.Signal) {
	sm := sim.New()
	tog := sm.Bool("top.tog")
	cnt := sm.Signal("top.cnt", 8)
	sm.Seq("count", func() {
		cnt.SetU64(cnt.U64() + 1)
		tog.SetBool(!tog.Bool())
	})
	return sm, tog, cnt
}

func TestWriteParseRoundTrip(t *testing.T) {
	sm, tog, cnt := buildCounterSim()
	var buf bytes.Buffer
	wr := NewWriter(&buf, "bench")
	wr.Declare(tog)
	wr.Declare(cnt)
	wr.Attach(sm)
	if err := sm.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}

	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.TopModule != "bench" {
		t.Errorf("top module %q", f.TopModule)
	}
	ci := f.VarIndex("top.cnt")
	ti := f.VarIndex("top.tog")
	if ci < 0 || ti < 0 {
		t.Fatalf("missing vars: %+v", f.Vars)
	}
	if f.Vars[ci].Width != 8 {
		t.Errorf("cnt width %d", f.Vars[ci].Width)
	}
	for cyc := uint64(0); cyc < 10; cyc++ {
		time := cyc * TimePerCycle
		if got := f.ValueAt(ci, time).Uint64(); got != cyc+1 {
			t.Errorf("cnt at cycle %d = %d, want %d", cyc, got, cyc+1)
		}
		wantTog := (cyc+1)%2 == 1
		if got := f.ValueAt(ti, time).Bool(); got != wantTog {
			t.Errorf("tog at cycle %d = %v, want %v", cyc, got, wantTog)
		}
	}
	if f.Cycles() != 10 {
		t.Errorf("Cycles() = %d, want 10", f.Cycles())
	}
}

func TestScopeHierarchyRoundTrip(t *testing.T) {
	sm := sim.New()
	a := sm.Signal("node.i0.req", 1)
	b := sm.Signal("node.i1.req", 1)
	c := sm.Signal("node.i0.add", 32)
	top := sm.Signal("clkcnt", 4)
	_ = top
	var buf bytes.Buffer
	wr := NewWriter(&buf, "tb")
	wr.DeclareAll(sm)
	wr.Attach(sm)
	sm.Seq("drive", func() {
		a.SetBool(true)
		b.SetBool(false)
		c.SetU64(0x1234)
	})
	if err := sm.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "$scope module node $end") {
		t.Error("missing node scope")
	}
	if !strings.Contains(text, "$scope module i0 $end") {
		t.Error("missing i0 scope")
	}
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node.i0.req", "node.i1.req", "node.i0.add", "clkcnt"} {
		if f.VarIndex(name) < 0 {
			t.Errorf("var %q lost in round trip; have %+v", name, f.Vars)
		}
	}
	if got := f.ValueAt(f.VarIndex("node.i0.add"), TimePerCycle).Uint64(); got != 0x1234 {
		t.Errorf("add = %#x", got)
	}
}

func TestIDCodeUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		c := idCode(i)
		if seen[c] {
			t.Fatalf("duplicate id code %q at %d", c, i)
		}
		seen[c] = true
		for _, ch := range c {
			if ch < '!' || ch > '~' {
				t.Fatalf("id code %q contains non-printable %q", c, ch)
			}
		}
	}
}

func TestIDCodeProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		if a == b {
			return true
		}
		return idCode(int(a)) != idCode(int(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueAtBeforeFirstChange(t *testing.T) {
	f := &File{Changes: [][]Change{{{Time: 50, Value: sim.B64(7)}}}}
	if !f.ValueAt(0, 10).IsZero() {
		t.Error("value before first change should be zero")
	}
	if f.ValueAt(0, 50).Uint64() != 7 {
		t.Error("value at change time should be the new value")
	}
	if f.ValueAt(0, 90).Uint64() != 7 {
		t.Error("value after change should persist")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		"$var wire eight ! x $end\n$enddefinitions $end\n",
		"#12\nqzzz\n",
		"$enddefinitions $end\n#5\nb1010\n", // vector change missing code
		"$enddefinitions $end\n#5\n1%\n",    // unknown code
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

// TestParseRejectsDecreasingTime pins time order. A dump that lists its #50
// block before its #0 block used to parse with its changes out of order, so
// ValueAt's search read the wrong value, and stba.Compare put it at 83.33 %
// alignment (first divergence @5) against the same values listed in order.
// Parse refuses it and names the timestamp; a repeated timestamp stays
// legal.
func TestParseRejectsDecreasingTime(t *testing.T) {
	const defs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n" +
		"$var wire 1 \" gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	inOrder := defs + "#0\n$dumpvars\n0!\n0\"\n$end\n#50\n1!\n1\"\n"
	swapped := defs + "#50\n1!\n1\"\n#0\n$dumpvars\n0!\n0\"\n$end\n"
	f, err := Parse(strings.NewReader(inOrder))
	if err != nil {
		t.Fatal(err)
	}
	if req := f.VarIndex("p.req"); f.ValueAt(req, 40).Bool() || !f.ValueAt(req, 50).Bool() {
		t.Error("in-order dump: req should rise at #50")
	}
	_, err = Parse(strings.NewReader(swapped))
	if err == nil || !strings.Contains(err.Error(), "#0") {
		t.Errorf("Parse of a dump whose time runs back to #0 returned %v", err)
	}
	repeated := defs + "#0\n0!\n#0\n1!\n#50\n1\"\n#50\n"
	f, err = Parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatalf("a repeated timestamp must parse: %v", err)
	}
	if !f.ValueAt(f.VarIndex("p.req"), 0).Bool() || f.EndTime != 50 {
		t.Errorf("repeated timestamps: req@0 %v, end time %d", f.ValueAt(f.VarIndex("p.req"), 0), f.EndTime)
	}
}

// TestParseAliasedCodes pins shared identifier codes: VCD lets several
// $vars share one code, as a simulator aliases a port and the net it drives.
// Parse used to map the code to the last of them only, so p.req never
// changed and stba.Compare aligned the dump with the same values under two
// codes at 75.00 % (first divergence @1: p.req).
func TestParseAliasedCodes(t *testing.T) {
	const defs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n" +
		"$var wire 1 ! lck $end\n$var wire 4 \" gnt $end\n$var wire 4 \" r_gnt $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	f, err := Parse(strings.NewReader(defs + "#0\n0!\nb0 \"\n#10\n1!\nb101 \"\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{{"p.req", 1}, {"p.lck", 1}, {"p.gnt", 5}, {"p.r_gnt", 5}} {
		i := f.VarIndex(c.name)
		if got := f.ValueAt(i, 10).Uint64(); got != c.want || len(f.Changes[i]) != 2 {
			t.Errorf("%s at #10 = %d after %d changes, want %d after 2", c.name, got, len(f.Changes[i]), c.want)
		}
	}
}

func TestParseXZCollapse(t *testing.T) {
	src := `$timescale 1ns $end
$scope module tb $end
$var wire 1 ! sig $end
$var wire 4 " vec $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
x!
bxz10 "
$end
#10
1!
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.ValueAt(f.VarIndex("sig"), 0); !got.IsZero() {
		t.Error("x should collapse to 0")
	}
	if got := f.ValueAt(f.VarIndex("vec"), 0).Uint64(); got != 0b0010 {
		t.Errorf("vec = %#b, want 0b0010", got)
	}
	if got := f.ValueAt(f.VarIndex("sig"), 10); !got.Bool() {
		t.Error("sig should be 1 at t=10")
	}
}

func TestWriterOnlyEmitsChanges(t *testing.T) {
	sm := sim.New()
	stable := sm.Signal("stable", 8)
	moving := sm.Signal("moving", 8)
	sm.Seq("drv", func() { moving.SetU64(moving.U64() + 1) })
	var buf bytes.Buffer
	wr := NewWriter(&buf, "tb")
	wr.Declare(stable)
	wr.Declare(moving)
	wr.Attach(sm)
	if err := sm.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	// "stable" must appear exactly once (in $dumpvars).
	n := strings.Count(buf.String(), " !\n") // code for first declared var
	if n != 1 {
		t.Errorf("stable emitted %d times, want 1\n%s", n, buf.String())
	}
}

func TestWriterFlushWithoutSamples(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf, "tb")
	sm := sim.New()
	wr.Declare(sm.Bool("a"))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(&buf); err != nil {
		t.Fatalf("header-only file should parse: %v", err)
	}
}

func TestWide256BitSignalRoundTrip(t *testing.T) {
	sm := sim.New()
	wide := sm.Signal("wide", 256)
	sm.Seq("drv", func() {
		v := sim.BWords(0x1111_2222_3333_4444, 0x5555_6666_7777_8888,
			0x9999_aaaa_bbbb_cccc, 0xdddd_eeee_ffff_0000+sm.Cycle())
		wide.Set(v)
	})
	var buf bytes.Buffer
	wr := NewWriter(&buf, "tb")
	wr.Declare(wide)
	wr.Attach(sm)
	if err := sm.Run(3); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := f.VarIndex("wide")
	if i < 0 || f.Vars[i].Width != 256 {
		t.Fatal("wide var lost")
	}
	got := f.ValueAt(i, 2*TimePerCycle)
	// BWords is little-endian word order: word 0 is least significant.
	if got.Word(0) != 0x1111_2222_3333_4444 || got.Word(3) != 0xdddd_eeee_ffff_0002 {
		t.Errorf("wide value %v", got)
	}
}

// TestParseRejectsOverwideValue: a vector change wider than its variable
// cannot be a wire's value, so Parse refuses it and names the variable and
// the timestamp, as DecodeRecording refuses the same value in a .crw. Under
// a shared identifier code the value must fit the narrowest variable.
func TestParseRejectsOverwideValue(t *testing.T) {
	const defs = "$scope module tb $end\n$scope module p $end\n$var wire 1 ! req $end\n" +
		"$var wire 4 \" opc $end\n$var wire 1 \" lck $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n"
	for _, c := range []struct {
		name, body, want string
	}{
		{"scalar var", "#0\nb11 !\n", `"p.req" at #0 wider than 1 bits`},
		{"later change", "#0\nb1 !\n#20\nb10000 \"\n", `"p.lck" at #20 wider than 1 bits`},
	} {
		if _, err := Parse(strings.NewReader(defs + c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse returned %v, want an error containing %s", c.name, err, c.want)
		}
	}
	f, err := Parse(strings.NewReader(defs + "#0\nb1 !\nb0001 \"\n"))
	if err != nil {
		t.Fatalf("values that fit must parse: %v", err)
	}
	if !f.ValueAt(f.VarIndex("p.req"), 0).Bool() || f.ValueAt(f.VarIndex("p.opc"), 0).Uint64() != 1 {
		t.Error("values that fit must read back")
	}
}
