package fabric_test

import (
	"fmt"
	"strings"
	"testing"

	"crve/internal/fabric"
	"crve/internal/lint"
	"crve/internal/regress"
)

// mapLoader serves node configs from an in-memory map, mirroring the
// ConfigLoader regress supplies from disk.
func mapLoader(files map[string]string) fabric.ConfigLoader {
	return func(path string) (lint.Source, error) {
		text, ok := files[path]
		if !ok {
			return lint.Source{}, fmt.Errorf("no such config %s", path)
		}
		return regress.ParseSource(path, strings.NewReader(text)), nil
	}
}

const n2x2 = `
name      = n2x2
type      = t3
data_bits = 32
num_init  = 2
num_tgt   = 2
arch      = full
map       = 0x1000:0x1000:0, 0x2000:0x1000:1
`

const n1x1 = `
name      = n1x1
type      = t3
data_bits = 32
num_init  = 1
num_tgt   = 1
map       = 0x1000:0x1000:0
`

var testCfgs = map[string]string{"n2x2.cfg": n2x2, "n1x1.cfg": n1x1}

// check parses a topology from source text and runs the whole-fabric check.
func check(t *testing.T, fab string) *lint.Report {
	t.Helper()
	top := fabric.Parse("test.fab", strings.NewReader(fab), mapLoader(testCfgs))
	return top.Check()
}

func codeStrings(r *lint.Report) []string {
	var out []string
	for _, d := range r.Diags {
		out = append(out, string(d.Code))
	}
	return out
}

// byCode returns the diagnostics carrying the given code.
func byCode(r *lint.Report, code lint.Code) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range r.Diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func wantCode(t *testing.T, r *lint.Report, code lint.Code) lint.Diagnostic {
	t.Helper()
	ds := byCode(r, code)
	if len(ds) == 0 {
		t.Fatalf("no %s diagnostic; got %v", code, codeStrings(r))
	}
	return ds[0]
}

func wantNoCode(t *testing.T, r *lint.Report, code lint.Code) {
	t.Helper()
	if ds := byCode(r, code); len(ds) > 0 {
		t.Fatalf("unexpected %s: %v", code, ds)
	}
}

const goodFab = `
node n    n2x2.cfg
init cpu0 t3/32/little
init cpu1 t3/32/little
mem  m0   t3/32/little 0x1000:0x1000
mem  m1   t3/32/little 0x2000:0x1000
bind cpu0   n.init0
bind cpu1   n.init1
bind n.tgt0 m0
bind n.tgt1 m1
`

func TestGoodTopologyIsClean(t *testing.T) {
	r := check(t, goodFab)
	if len(r.Diags) != 0 {
		t.Fatalf("good topology not clean:\n%v", r.Diags)
	}
}

func TestBindMismatch(t *testing.T) {
	fab := strings.Replace(goodFab, "init cpu0 t3/32/little", "init cpu0 t3/64/little", 1)
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeBindMismatch)
	if !strings.Contains(d.Msg, "data_bits 64 vs 32") {
		t.Errorf("CRVE018 message lacks the field diff: %s", d.Msg)
	}
	if d.Pos.File != "test.fab" || d.Pos.Line == 0 {
		t.Errorf("CRVE018 not positioned at the bind line: %v", d.Pos)
	}
}

func TestConverterAddrWidthMismatch(t *testing.T) {
	fab := `
conv c t3/64/little/40 t3/32/little/32
init cpu t3/64/little/40
mem  m   t3/32/little 0x1000:0x1000
bind cpu    c.up
bind c.down m
`
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeBindMismatch)
	if !strings.Contains(d.Msg, "address widths differ (40 vs 32)") {
		t.Errorf("converter CRVE018 message: %s", d.Msg)
	}
}

func TestConverterChainIsClean(t *testing.T) {
	fab := `
node n    n1x1.cfg
init cpu  t3/64/little
conv sz   t3/64/little t3/32/little
mem  m    t3/32/little 0x1000:0x1000
bind cpu     sz.up
bind sz.down n.init0
bind n.tgt0  m
`
	r := check(t, fab)
	if len(r.Diags) != 0 {
		t.Fatalf("converter chain not clean:\n%v", r.Diags)
	}
}

func TestBlackholedWindow(t *testing.T) {
	// m1 serves 0x8000.. but the node routes 0x2000..0x2fff at it.
	fab := strings.Replace(goodFab, "mem  m1   t3/32/little 0x2000:0x1000", "mem  m1   t3/32/little 0x8000:0x1000", 1)
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeFabricUnreachable)
	if !strings.Contains(d.Msg, "black-holed") {
		t.Errorf("CRVE019 message: %s", d.Msg)
	}
	wantNoCode(t, r, lint.CodeFabricShadow)
}

func TestShadowedWindow(t *testing.T) {
	// m1 serves only the second half of the node's 0x2000..0x2fff region.
	fab := strings.Replace(goodFab, "mem  m1   t3/32/little 0x2000:0x1000", "mem  m1   t3/32/little 0x2800:0x800", 1)
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeFabricShadow)
	if !strings.Contains(d.Msg, "0x2000..0x27ff unserved") {
		t.Errorf("CRVE020 message lacks the gap: %s", d.Msg)
	}
	if d.Severity != lint.Warning {
		t.Errorf("CRVE020 severity = %v, want warning", d.Severity)
	}
}

func TestTwoHopChainClean(t *testing.T) {
	// cpu0 reaches m0 through two cascaded nodes; cpu1 attaches to the
	// downstream node directly, covering its second region.
	fab := `
node up   n1x1.cfg
node down n2x2.cfg
init cpu0 t3/32/little
init cpu1 t3/32/little
mem  m0   t3/32/little 0x1000:0x1000
mem  m1   t3/32/little 0x2000:0x1000
bind cpu0      up.init0
bind up.tgt0   down.init0
bind cpu1      down.init1
bind down.tgt0 m0
bind down.tgt1 m1
`
	r := check(t, fab)
	if len(r.Diags) != 0 {
		t.Fatalf("two-hop fabric not clean:\n%v", r.Diags)
	}
}

func TestShadowAcrossHops(t *testing.T) {
	// The upstream node claims 0x1000..0x2fff in one region, but the
	// downstream node only maps (and its memory only serves) 0x1000..0x1fff:
	// the upper half is shadowed two hops up.
	cfgs := map[string]string{
		"n1x1.cfg": n1x1,
		"wide.cfg": `
name      = wide
type      = t3
data_bits = 32
num_init  = 1
num_tgt   = 1
map       = 0x1000:0x2000:0
`,
	}
	fab := `
node up   wide.cfg
node down n1x1.cfg
init cpu  t3/32/little
mem  m    t3/32/little 0x1000:0x1000
bind cpu       up.init0
bind up.tgt0   down.init0
bind down.tgt0 m
`
	top := fabric.Parse("test.fab", strings.NewReader(fab), mapLoader(cfgs))
	r := top.Check()
	d := wantCode(t, r, lint.CodeFabricShadow)
	if !strings.Contains(d.Msg, "0x2000..0x2fff unserved") {
		t.Errorf("across-hop CRVE020 message: %s", d.Msg)
	}
}

func TestDanglingPort(t *testing.T) {
	fab := strings.Replace(goodFab, "bind cpu1   n.init1\n", "", 1)
	fab = strings.Replace(fab, "init cpu1 t3/32/little\n", "", 1)
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeFabricDangling)
	if !strings.Contains(d.Msg, "n.init1") || !strings.Contains(d.Msg, "dangling") {
		t.Errorf("CRVE021 message: %s", d.Msg)
	}
	// The full crossbar still reaches every region via cpu0: no CRVE019.
	wantNoCode(t, r, lint.CodeFabricUnreachable)
}

func TestDoublyBoundPort(t *testing.T) {
	fab := goodFab + "bind cpu0 n.init1\n"
	r := check(t, fab)
	found := false
	for _, d := range byCode(r, lint.CodeFabricDangling) {
		if strings.Contains(d.Msg, "already bound") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no doubly-bound CRVE021: %v", r.Diags)
	}
}

func TestRoleMismatchedBind(t *testing.T) {
	fab := strings.Replace(goodFab, "bind n.tgt0 m0", "bind m0 n.tgt0", 1)
	r := check(t, fab)
	found := false
	for _, d := range byCode(r, lint.CodeFabricDangling) {
		if strings.Contains(d.Msg, "request-") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no role-mismatch CRVE021: %v", r.Diags)
	}
}

func TestSrcCollision(t *testing.T) {
	fab := strings.Replace(goodFab, "init cpu1 t3/32/little", "init cpu1 t3/32/little src=0", 1)
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeFabricSrcID)
	for _, want := range []string{"source ID 0", "cpu0", "cpu1", "ambiguous"} {
		if !strings.Contains(d.Msg, want) {
			t.Errorf("CRVE022 message missing %q: %s", want, d.Msg)
		}
	}
}

func TestSrcOverflow(t *testing.T) {
	fab := strings.Replace(goodFab, "init cpu1 t3/32/little", "init cpu1 t3/32/little src=256", 1)
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeFabricSrcID)
	if !strings.Contains(d.Msg, "8-bit") {
		t.Errorf("CRVE022 overflow message: %s", d.Msg)
	}
}

func TestCombinationalCycle(t *testing.T) {
	fab := `
node a n2x2.cfg
node b n2x2.cfg
init cpu0 t3/32/little
init cpu1 t3/32/little
mem  m0 t3/32/little 0x1000:0x1000
mem  m1 t3/32/little 0x1000:0x1000
bind cpu0   a.init0
bind cpu1   b.init0
bind a.tgt0 m0
bind b.tgt0 m1
bind a.tgt1 b.init1
bind b.tgt1 a.init1
`
	r := check(t, fab)
	d := wantCode(t, r, lint.CodeFabricCycle)
	if !strings.Contains(d.Msg, " -> ") {
		t.Errorf("CRVE023 message lacks the cycle path: %s", d.Msg)
	}
	// With a cyclic graph the window walks are skipped: no cascade.
	wantNoCode(t, r, lint.CodeFabricUnreachable)
}

func TestCrossbarBlocksRegion(t *testing.T) {
	// A partial crossbar whose only initiator rows reach target 0: the
	// region routed at target 1 is reachable by no initiator.
	partial := `
name      = part
type      = t3
data_bits = 32
num_init  = 2
num_tgt   = 2
arch      = partial
allowed   = 10,10
map       = 0x1000:0x1000:0, 0x2000:0x1000:1
`
	cfgs := map[string]string{"part.cfg": partial}
	fab := `
node n    part.cfg
init cpu0 t3/32/little
init cpu1 t3/32/little
mem  m0   t3/32/little 0x1000:0x1000
mem  m1   t3/32/little 0x2000:0x1000
bind cpu0   n.init0
bind cpu1   n.init1
bind n.tgt0 m0
bind n.tgt1 m1
`
	top := fabric.Parse("test.fab", strings.NewReader(fab), mapLoader(cfgs))
	r := top.Check()
	// The config itself warns (CRVE010 isolated target); the fabric check
	// must flag the unreachable region too.
	d := wantCode(t, r, lint.CodeFabricUnreachable)
	if !strings.Contains(d.Msg, "reachable by no external initiator") {
		t.Errorf("CRVE019 message: %s", d.Msg)
	}
}

func TestBrokenConfigDoesNotCascade(t *testing.T) {
	bad := map[string]string{"bad.cfg": "type = t9\n"}
	fab := `
node n   bad.cfg
init cpu t3/32/little
bind cpu n.init0
`
	top := fabric.Parse("test.fab", strings.NewReader(fab), mapLoader(bad))
	r := top.Check()
	if !r.HasErrors() {
		t.Fatal("broken config produced no errors")
	}
	wantNoCode(t, r, lint.CodeFabricUnreachable)
	wantNoCode(t, r, lint.CodeFabricShadow)
}

func TestParseDiagnostics(t *testing.T) {
	fab := `
widget w
node n nope.cfg
init cpu t3/99/little
bind cpu ghost.init0
`
	top := fabric.Parse("test.fab", strings.NewReader(fab), mapLoader(nil))
	r := top.Check()
	parse := byCode(r, lint.CodeParse)
	if len(parse) < 4 {
		t.Fatalf("want >=4 CRVE000 (unknown directive, unloadable config, bad spec, unknown ref), got %v", parse)
	}
	for _, d := range parse {
		if d.Pos.Line == 0 {
			t.Errorf("parse diagnostic without a line: %v", d)
		}
	}
}

func TestProgWindowServedInternally(t *testing.T) {
	prog := `
name      = prog
type      = t3
data_bits = 32
num_init  = 1
num_tgt   = 1
req_arb   = programmable
map       = 0x1000:0x1000:0
prog_port = true
prog_base = 0x4000
`
	cfgs := map[string]string{"prog.cfg": prog, "n1x1.cfg": n1x1}
	// Upstream node routes 0x4000..0x4003 (the 4-byte priority register of
	// the downstream 1-init node) downstream; the prog window serves it.
	up := `
name      = up
type      = t3
data_bits = 32
num_init  = 1
num_tgt   = 1
map       = 0x1000:0x1000:0, 0x4000:4:0
`
	cfgs["up.cfg"] = up
	fab := `
node u   up.cfg
node n   prog.cfg
init cpu t3/32/little
mem  m   t3/32/little 0x1000:0x1000
bind cpu    u.init0
bind u.tgt0 n.init0
bind n.tgt0 m
`
	top := fabric.Parse("test.fab", strings.NewReader(fab), mapLoader(cfgs))
	r := top.Check()
	if r.HasErrors() {
		t.Fatalf("prog-window fabric has errors:\n%v", r.Diags)
	}
}
