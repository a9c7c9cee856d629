package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crve/internal/arb"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// base returns a lint-clean reference configuration; each analyzer test
// mutates one aspect of it.
func base() nodespec.Config {
	return nodespec.Config{
		Name:    "ref",
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}.WithDefaults()
}

// codes returns the set of codes present in the report.
func codes(r *Report) map[Code]int {
	m := map[Code]int{}
	for _, d := range r.Diags {
		m[d.Code]++
	}
	return m
}

func TestCleanConfigHasNoDiagnostics(t *testing.T) {
	r := Check(MemSource(base()))
	if len(r.Diags) != 0 {
		t.Fatalf("clean config produced diagnostics:\n%v", r.Diags)
	}
}

// expect checks one positive case (mutated config must trigger code) against
// the negative case (the base config must not).
func expect(t *testing.T, code Code, sev Severity, mutate func(*nodespec.Config)) {
	t.Helper()
	cfg := base()
	mutate(&cfg)
	r := Check(MemSource(cfg))
	found := false
	for _, d := range r.Diags {
		if d.Code == code {
			found = true
			if d.Severity != sev {
				t.Errorf("%s reported with severity %v, want %v", code, d.Severity, sev)
			}
		}
	}
	if !found {
		t.Errorf("%s not reported; got %v", code, r.Diags)
	}
	if n := codes(Check(MemSource(base())))[code]; n != 0 {
		t.Errorf("%s reported on the clean base config", code)
	}
}

func TestRegionMalformed(t *testing.T) {
	expect(t, CodeRegionMalformed, Error, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: 0x1000, Size: 0, Target: 0}, {Base: 0x2000, Size: 0x1000, Target: 1}}
	})
	expect(t, CodeRegionMalformed, Error, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: ^uint64(0) - 4, Size: 0x1000, Target: 0}, {Base: 0x1000, Size: 0x1000, Target: 1}}
	})
}

func TestRegionOverlap(t *testing.T) {
	expect(t, CodeRegionOverlap, Error, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 0}, {Base: 0x1800, Size: 0x1000, Target: 1}}
	})
}

func TestRegionGap(t *testing.T) {
	expect(t, CodeRegionGap, Warning, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 0}, {Base: 0x4000, Size: 0x1000, Target: 1}}
	})
}

func TestRegionTarget(t *testing.T) {
	expect(t, CodeRegionTarget, Error, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 0}, {Base: 0x2000, Size: 0x1000, Target: 7}}
	})
}

func TestTargetUnmapped(t *testing.T) {
	expect(t, CodeTargetUnmapped, Error, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 0}, {Base: 0x2000, Size: 0x1000, Target: 0}}
	})
	// No map at all: one file-level diagnostic instead of one per target.
	cfg := base()
	cfg.Map = nil
	if n := codes(Check(MemSource(cfg)))[CodeTargetUnmapped]; n != 1 {
		t.Errorf("empty map reported %d CodeTargetUnmapped diagnostics, want 1", n)
	}
}

func TestRegionAddrWidth(t *testing.T) {
	expect(t, CodeRegionAddrWidth, Error, func(c *nodespec.Config) {
		c.Port.AddrBits = 16
		c.Map = stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 0}, {Base: 0x1_0000, Size: 0x1000, Target: 1}}
	})
	// A 64-bit port has no overflow to report.
	cfg := base()
	cfg.Port.AddrBits = 64
	cfg.Map = stbus.AddrMap{{Base: 0x1000, Size: 0x1000, Target: 0}, {Base: ^uint64(0) - 0xfff, Size: 0x1000, Target: 1}}
	if n := codes(Check(MemSource(cfg)))[CodeRegionAddrWidth]; n != 0 {
		t.Errorf("64-bit address space wrongly reported overflow")
	}
}

func TestRegionAlign(t *testing.T) {
	expect(t, CodeRegionAlign, Warning, func(c *nodespec.Config) {
		c.Map = stbus.AddrMap{{Base: 0x1002, Size: 0xffe, Target: 0}, {Base: 0x2000, Size: 0x1000, Target: 1}}
	})
}

func TestAllowedShape(t *testing.T) {
	expect(t, CodeAllowedShape, Error, func(c *nodespec.Config) {
		c.Arch = nodespec.PartialCrossbar
		c.Allowed = [][]bool{{true, true}} // one row for two initiators
	})
	expect(t, CodeAllowedShape, Error, func(c *nodespec.Config) {
		c.Arch = nodespec.PartialCrossbar
		c.Allowed = [][]bool{{true}, {true, true}} // short row
	})
}

func TestInitiatorStranded(t *testing.T) {
	expect(t, CodeInitiatorStranded, Error, func(c *nodespec.Config) {
		c.Arch = nodespec.PartialCrossbar
		c.Allowed = [][]bool{{false, false}, {true, true}}
	})
	// A fully-connected partial crossbar is clean.
	cfg := base()
	cfg.Arch = nodespec.PartialCrossbar
	cfg.Allowed = [][]bool{{true, true}, {true, true}}
	if got := codes(Check(MemSource(cfg))); len(got) != 0 {
		t.Errorf("fully-connected partial crossbar reported %v", got)
	}
}

func TestTargetIsolated(t *testing.T) {
	expect(t, CodeTargetIsolated, Warning, func(c *nodespec.Config) {
		c.Arch = nodespec.PartialCrossbar
		c.Allowed = [][]bool{{true, false}, {true, false}}
	})
}

func TestProgPort(t *testing.T) {
	// Enabled without a base.
	expect(t, CodeProgPort, Error, func(c *nodespec.Config) {
		c.ProgPort = true
	})
	// Register region overlapping the address map.
	expect(t, CodeProgPort, Error, func(c *nodespec.Config) {
		c.ProgPort = true
		c.ProgBase = 0x1004
	})
	// Register region beyond the address space.
	expect(t, CodeProgPort, Error, func(c *nodespec.Config) {
		c.Port.AddrBits = 16
		c.ProgPort = true
		c.ProgBase = 0xfffc
	})
	// A well-placed programming port is clean.
	cfg := base()
	cfg.ReqArb = arb.Programmable
	cfg.ProgPort = true
	cfg.ProgBase = 0x10_0000
	if got := codes(Check(MemSource(cfg))); len(got) != 0 {
		t.Errorf("valid programming port reported %v", got)
	}
}

func TestProgArb(t *testing.T) {
	expect(t, CodeProgArb, Warning, func(c *nodespec.Config) {
		c.ReqArb = arb.Programmable
	})
	expect(t, CodeProgArb, Warning, func(c *nodespec.Config) {
		c.RespArb = arb.Programmable
	})
}

func TestPipeProtocol(t *testing.T) {
	expect(t, CodePipeProtocol, Warning, func(c *nodespec.Config) {
		c.PipeSize = 1 // t3 with no request overlap
	})
	expect(t, CodePipeProtocol, Warning, func(c *nodespec.Config) {
		c.PipeSize = 6 // not a power of two
	})
	// t2 with pipe 1 is a legitimate minimal node.
	cfg := base()
	cfg.Port.Type = stbus.Type2
	cfg.PipeSize = 1
	if n := codes(Check(MemSource(cfg)))[CodePipeProtocol]; n != 0 {
		t.Errorf("t2 pipe=1 wrongly reported")
	}
}

func TestPortParam(t *testing.T) {
	expect(t, CodePortParam, Error, func(c *nodespec.Config) { c.Port.Type = stbus.Type1 })
	expect(t, CodePortParam, Error, func(c *nodespec.Config) { c.Port.DataBits = 24 })
	expect(t, CodePortParam, Error, func(c *nodespec.Config) { c.Port.AddrBits = 80 })
	expect(t, CodePortParam, Error, func(c *nodespec.Config) { c.NumInit = 0 })
	expect(t, CodePortParam, Error, func(c *nodespec.Config) { c.NumTgt = 40 })
	expect(t, CodePortParam, Error, func(c *nodespec.Config) { c.PipeSize = 65 })
}

func TestDupName(t *testing.T) {
	a, b := base(), base()
	b.Map = stbus.UniformMap(2, 0x2000, 0x1000)
	r := CheckSet([]Source{MemSource(a), MemSource(b)}, nil)
	if n := codes(r)[CodeDupName]; n != 1 {
		t.Errorf("duplicate name reported %d times, want 1:\n%v", n, r.Diags)
	}
	b.Name = "other"
	r = CheckSet([]Source{MemSource(a), MemSource(b)}, nil)
	if n := codes(r)[CodeDupName]; n != 0 {
		t.Errorf("distinct names wrongly reported as duplicates")
	}
}

func TestDupSeed(t *testing.T) {
	r := CheckSet([]Source{MemSource(base())}, []int64{1, 2, 1})
	if n := codes(r)[CodeDupSeed]; n != 1 {
		t.Errorf("duplicate seed reported %d times, want 1", n)
	}
	r = CheckSet([]Source{MemSource(base())}, []int64{1, 2, 3})
	if n := codes(r)[CodeDupSeed]; n != 0 {
		t.Errorf("distinct seeds wrongly reported")
	}
}

func TestDeadBin(t *testing.T) {
	expect(t, CodeDeadBin, Warning, func(c *nodespec.Config) {
		// Diagonal partial crossbar on a t3 node: completion_order/reordered
		// is declared but no initiator can reach two targets.
		c.Arch = nodespec.PartialCrossbar
		c.Allowed = [][]bool{{true, false}, {false, true}}
	})
	// A single row with fanout >= 2 makes reordering observable again.
	cfg := base()
	cfg.Arch = nodespec.PartialCrossbar
	cfg.Allowed = [][]bool{{true, true}, {false, true}}
	if n := codes(Check(MemSource(cfg)))[CodeDeadBin]; n != 0 {
		t.Errorf("CRVE017 reported on a config with fanout 2")
	}
	// A broken allowed shape must not cascade into (or panic) the dead-bin
	// check: CRVE008 owns that failure.
	bad := base()
	bad.Arch = nodespec.PartialCrossbar
	bad.Allowed = [][]bool{{true}}
	r := Check(MemSource(bad))
	if codes(r)[CodeDeadBin] != 0 || codes(r)[CodeAllowedShape] == 0 {
		t.Errorf("shape error should suppress CRVE017: %v", r.Diags)
	}
}

func TestParseDiagnosticsShortCircuitSemantics(t *testing.T) {
	src := Source{
		File: "broken.cfg",
		Parse: []Diagnostic{{
			Pos: Position{File: "broken.cfg", Line: 3}, Code: CodeParse,
			Severity: Error, Msg: "unknown parameter \"bogus\"",
		}},
	}
	r := Check(src)
	if len(r.Diags) != 1 || r.Diags[0].Code != CodeParse {
		t.Fatalf("want only the parse diagnostic, got %v", r.Diags)
	}
}

func TestReportSortTextAndJSON(t *testing.T) {
	r := &Report{}
	r.Addf(Position{File: "b.cfg", Line: 2}, CodeRegionOverlap, Error, "second")
	r.Addf(Position{File: "a.cfg", Line: 9}, CodeRegionGap, Warning, "first")
	r.Sort()
	if r.Diags[0].Pos.File != "a.cfg" {
		t.Errorf("sort order wrong: %v", r.Diags)
	}
	var text bytes.Buffer
	r.Text(&text)
	want := "a.cfg:9: warning: CRVE003: first"
	if !strings.Contains(text.String(), want) {
		t.Errorf("text output missing %q:\n%s", want, text.String())
	}
	if !strings.Contains(text.String(), "1 error(s), 1 warning(s)") {
		t.Errorf("summary line missing:\n%s", text.String())
	}

	var buf bytes.Buffer
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Diagnostics []struct {
			Pos      Position `json:"pos"`
			Code     Code     `json:"code"`
			Severity string   `json:"severity"`
			Msg      string   `json:"msg"`
		} `json:"diagnostics"`
		Errors   int `json:"errors"`
		Warnings int `json:"warnings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Diagnostics) != 2 || decoded.Errors != 1 || decoded.Warnings != 1 {
		t.Fatalf("JSON round-trip: %+v", decoded)
	}
	// Severities travel by name; each decoded diagnostic must read back as
	// the sorted original.
	severity := map[string]Severity{"warning": Warning, "error": Error}
	for i, d := range decoded.Diagnostics {
		sev, ok := severity[d.Severity]
		got := Diagnostic{Pos: d.Pos, Code: d.Code, Severity: sev, Msg: d.Msg}
		if !ok || got != r.Diags[i] {
			t.Errorf("JSON diagnostic %d: %+v with severity %q, want %v", i, got, d.Severity, r.Diags[i])
		}
	}
}

func TestRulesTableCoversAllCodes(t *testing.T) {
	rules := Rules()
	if len(rules) < 8 {
		t.Fatalf("only %d rules documented", len(rules))
	}
	seen := map[Code]bool{}
	for _, rule := range rules {
		if seen[rule.Code] {
			t.Errorf("duplicate rule entry %s", rule.Code)
		}
		seen[rule.Code] = true
	}
	for _, c := range []Code{CodeParse, CodeRegionOverlap, CodeDupSeed, CodePortParam} {
		if !seen[c] {
			t.Errorf("rule table missing %s", c)
		}
	}
}
