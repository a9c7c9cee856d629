package regress

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crve/internal/arb"
	"crve/internal/bca"
	"crve/internal/core"
	"crve/internal/coverage"
	"crve/internal/lint"
	"crve/internal/nodespec"
	"crve/internal/stbus"
	"crve/internal/testcases"
	"crve/internal/vcd"
)

const sampleCfg = `
# reference configuration
name      = sample
type      = t3
data_bits = 32
endian    = little
num_init  = 3
num_tgt   = 2
arch      = full
req_arb   = lru
resp_arb  = priority
pipe      = 4
map       = 0x1000:0x1000:0, 0x2000:0x1000:1
`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(sampleCfg))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "sample" || cfg.Port.Type != stbus.Type3 || cfg.Port.DataBits != 32 ||
		cfg.NumInit != 3 || cfg.NumTgt != 2 || cfg.ReqArb != arb.LRU || cfg.PipeSize != 4 {
		t.Errorf("parsed %v", cfg)
	}
	if len(cfg.Map) != 2 || cfg.Map[1].Base != 0x2000 || cfg.Map[1].Target != 1 {
		t.Errorf("map %v", cfg.Map)
	}
}

func TestParseConfigPartialAndProg(t *testing.T) {
	src := `
type = t2
data_bits = 64
num_init = 2
num_tgt = 2
arch = partial
req_arb = programmable
resp_arb = roundrobin
map = 0x0:0x1000:0, 0x1000:0x1000:1
allowed = 11,10
prog_port = true
prog_base = 0x100000
endian = big
`
	cfg, err := ParseConfig(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arch != nodespec.PartialCrossbar || !cfg.Allowed[0][1] || cfg.Allowed[1][1] {
		t.Errorf("allowed %v", cfg.Allowed)
	}
	if !cfg.ProgPort || cfg.ProgBase != 0x100000 || cfg.Port.Endian != stbus.BigEndian {
		t.Errorf("cfg %v", cfg)
	}
}

func TestParseConfigErrors(t *testing.T) {
	bad := []string{
		"type = t9\n",
		"nonsense\n",
		"whoami = 3\n",
		"arch = ring\n",
		"map = 1:2\n",
		"allowed = 12\n",
		// valid syntax, invalid semantics (no map):
		"type = t3\ndata_bits = 32\nnum_init = 1\nnum_tgt = 1\n",
	}
	for _, src := range bad {
		if _, err := ParseConfig(strings.NewReader(src)); err == nil {
			t.Errorf("ParseConfig(%q) should fail", src)
		}
	}
}

func TestFormatConfigRoundTrip(t *testing.T) {
	for _, cfg := range StandardMatrix()[:8] {
		text := FormatConfig(cfg)
		back, err := ParseConfig(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v\n%s", cfg.Name, err, text)
		}
		if back.String() != cfg.String() {
			t.Errorf("round trip changed config:\n%v\n%v", cfg, back)
		}
	}
}

// TestLoadConfigDir: LoadConfigs takes a directory or a single file, names
// an unnamed configuration after its file, and refuses a broken file with
// every broken line of it.
func TestLoadConfigDir(t *testing.T) {
	write := func(dir, name, text string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dir := t.TempDir()
	single := write(dir, "a.cfg", sampleCfg)
	cfg2 := StandardMatrix()[0]
	write(dir, "b.cfg", FormatConfig(cfg2))
	write(dir, "ignore.txt", "x")
	unnamed := write(t.TempDir(), "solo.cfg", strings.Replace(sampleCfg, "name      = sample\n", "", 1))
	for _, tc := range []struct {
		what, path string
		want       []string
	}{
		{"directory", dir, []string{"sample", cfg2.Name}},
		{"single file", single, []string{"sample"}},
		{"unnamed file", unnamed, []string{"solo"}},
	} {
		cfgs, err := LoadConfigs(tc.path)
		if err != nil {
			t.Errorf("%s: %v", tc.what, err)
			continue
		}
		var got []string
		for _, cfg := range cfgs {
			got = append(got, cfg.Name)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: loaded %v, want %v", tc.what, got, tc.want)
		}
	}
	if _, err := LoadConfigs(t.TempDir()); err == nil {
		t.Error("empty dir should fail")
	}
	broken := write(t.TempDir(), "broken.cfg", "type = t9\nbogus = 1\nwhat\n")
	want := "broken.cfg: regress: line 1: bad type \"t9\"\n" +
		"regress: line 2: unknown parameter \"bogus\"\n" +
		"regress: line 3: expected key = value"
	if _, err := LoadConfigs(broken); err == nil || err.Error() != want {
		t.Errorf("broken file: got %v, want\n%s", err, want)
	}
}

func TestStandardMatrixShape(t *testing.T) {
	m := StandardMatrix()
	if len(m) < 36 {
		t.Fatalf("matrix has %d configs, the paper tested more than 36", len(m))
	}
	seenArb := map[arb.Kind]bool{}
	seenArch := map[nodespec.Arch]bool{}
	seenType := map[stbus.Type]bool{}
	names := map[string]bool{}
	for _, cfg := range m {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
		if names[cfg.Name] {
			t.Errorf("duplicate name %s", cfg.Name)
		}
		names[cfg.Name] = true
		seenArb[cfg.ReqArb] = true
		seenArch[cfg.Arch] = true
		seenType[cfg.Port.Type] = true
	}
	if len(seenArb) != 6 {
		t.Errorf("only %d arbitration kinds swept", len(seenArb))
	}
	if len(seenArch) != 3 || len(seenType) != 2 {
		t.Error("matrix must sweep all architectures and node protocol types")
	}
}

func TestRunConfigCleanSuite(t *testing.T) {
	cfg := nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(2, 0x1000, 0x1000),
	}.WithDefaults()
	// A focused sub-suite keeps the unit test quick; the full matrix runs in
	// the E1 benchmark.
	suite := []string{"basic_write_read", "out_of_order", "error_paths", "chunked"}
	opt := Options{Seeds: []int64{1, 2}}
	for _, name := range suite {
		tc, err := testcases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt.Tests = append(opt.Tests, tc)
	}
	cr, err := RunConfig(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.SignedOff() {
		t.Fatalf("clean config not signed off: rtlFail=%d bcaFail=%d covEq=%v align=%.2f",
			cr.RTLFailures, cr.BCAFailures, cr.CoverageAllEqual, cr.MinAlignment)
	}
	if cr.MinAlignment != 100 {
		t.Errorf("alignment %.2f", cr.MinAlignment)
	}
	if len(cr.Runs) != 8 {
		t.Errorf("%d runs, want 8", len(cr.Runs))
	}
	// The 4-test sub-suite cannot reach full coverage (no long bursts, no
	// mixed kinds); it must still make substantial progress.
	if cr.SuiteCoverage.Percent() < 50 {
		t.Errorf("suite coverage %.1f%% suspiciously low\n%s",
			cr.SuiteCoverage.Percent(), cr.SuiteCoverage.Report())
	}
	rep := MatrixReport([]*ConfigResult{cr})
	if !strings.Contains(rep, "PASS") && !strings.Contains(rep, "pass") {
		t.Errorf("report:\n%s", rep)
	}
}

// TestFullSuiteReachesFullCoverage is the paper's coverage sign-off: the
// complete twelve-test suite, with a few seeds, must reach 100 % functional
// coverage on the reference configuration.
func TestFullSuiteReachesFullCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	cfg := nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.Programmable, RespArb: arb.Priority,
		Map:      stbus.UniformMap(2, 0x1000, 0x1000),
		ProgPort: true,
		ProgBase: 0x10_0000,
	}.WithDefaults()
	cr, err := RunConfig(cfg, Options{Tests: testcases.All(), Seeds: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.SignedOff() {
		t.Fatalf("reference config not signed off: rtlFail=%d bcaFail=%d covEq=%v align=%.2f",
			cr.RTLFailures, cr.BCAFailures, cr.CoverageAllEqual, cr.MinAlignment)
	}
	if !cr.SuiteCoverage.Full() {
		t.Errorf("functional coverage %.1f%%, want 100%%\n%s",
			cr.SuiteCoverage.Percent(), cr.SuiteCoverage.Report())
	}
	if lc := cr.CodeCov.Percent(coverage.LinePoint); lc != 100 {
		t.Errorf("justified line coverage %.1f%%, want 100%%\n%s", lc, cr.CodeCov.Report())
	}
}

func TestRunConfigDetectsBuggedBCA(t *testing.T) {
	cfg := nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 3, NumTgt: 1,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		Map: stbus.UniformMap(1, 0x1000, 0x1000),
	}.WithDefaults()
	tc, err := testcases.ByName("priority_pressure")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := RunConfig(cfg, Options{Tests: []core.Test{tc}, Seeds: []int64{1},
		Bugs: bca.Bugs{LRUInit: true}})
	if err != nil {
		t.Fatal(err)
	}
	if cr.SignedOff() {
		t.Error("bugged BCA must not sign off")
	}
	if cr.MinAlignment == 100 {
		t.Error("alignment should drop")
	}
}

func TestWriteReports(t *testing.T) {
	cfg := nodespec.Config{
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 1, NumTgt: 1,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.Priority, RespArb: arb.Priority,
		Map: stbus.UniformMap(1, 0x1000, 0x1000),
	}.WithDefaults()
	tc, err := testcases.ByName("basic_write_read")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := RunConfig(cfg, Options{Tests: []core.Test{tc}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteReports(dir, []*ConfigResult{cr}); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, cfg.Name)
	rep, err := os.ReadFile(filepath.Join(base, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alignment min 100.00%", "functional coverage", "code coverage"} {
		if !strings.Contains(string(rep), want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The streaming default writes no waveform files at all.
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".vcd") || strings.HasSuffix(e.Name(), ".crw") {
			t.Errorf("default run must not write waveform artifacts, found %s", e.Name())
		}
	}

	// With RecordWave, the compact binary recordings are kept per run and
	// round-trip through the encoder.
	cr, err = RunConfig(cfg, Options{Tests: []core.Test{tc}, Seeds: []int64{1}, RecordWave: true})
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := WriteReports(dir2, []*ConfigResult{cr}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"basic_write_read_seed1_rtl.crw", "basic_write_read_seed1_bca.crw"} {
		data, err := os.ReadFile(filepath.Join(dir2, cfg.Name, f))
		if err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
			continue
		}
		if _, err := vcd.DecodeRecording(data); err != nil {
			t.Errorf("artifact %s does not decode: %v", f, err)
		}
	}
}

func TestParseConfigAccumulatesAllErrors(t *testing.T) {
	src := `
name = multi
type = t9
data_bits = thirty
num_init = 2
num_tgt = 2
arch = full
map = 0x1000:0x800:0, 0x1800:0x800:1
bogus = 1
`
	_, err := ParseConfig(strings.NewReader(src))
	if err == nil {
		t.Fatal("broken config must fail")
	}
	msg := err.Error()
	for _, want := range []string{"line 3", "line 4", "line 9"} {
		if !strings.Contains(msg, "regress: "+want) {
			t.Errorf("error does not report %s:\n%s", want, msg)
		}
	}
}

func TestParseSourcePositions(t *testing.T) {
	src := ParseSource("x.cfg", strings.NewReader(sampleCfg))
	if len(src.Parse) != 0 {
		t.Fatalf("clean config produced parse diagnostics: %v", src.Parse)
	}
	// sampleCfg starts with a blank line and a comment; `name` is line 3.
	if src.KeyLine["name"] != 3 || src.KeyLine["map"] != 13 {
		t.Errorf("key lines wrong: %v", src.KeyLine)
	}
	if src.Cfg.Name != "sample" || src.File != "x.cfg" {
		t.Errorf("source %q cfg %v", src.File, src.Cfg)
	}

	bad := ParseSource("y.cfg", strings.NewReader("gibberish\nname = ok\n"))
	if len(bad.Parse) != 1 || bad.Parse[0].Pos.Line != 1 || bad.Parse[0].Code != lint.CodeParse {
		t.Errorf("parse diagnostics: %v", bad.Parse)
	}
}

func TestLoadSourceDirCollectsBrokenFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good.cfg"), []byte(sampleCfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.cfg"), []byte("what\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srcs, err := LoadSources(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 2 {
		t.Fatalf("loaded %d sources, want 2", len(srcs))
	}
	// Sorted by file name: broken.cfg first.
	if len(srcs[0].Parse) != 1 || len(srcs[1].Parse) != 0 {
		t.Errorf("parse diagnostics misplaced: %v / %v", srcs[0].Parse, srcs[1].Parse)
	}
	if srcs[0].Cfg.Name != "broken" {
		t.Errorf("unnamed config should take its file name, got %q", srcs[0].Cfg.Name)
	}
}

// TestRunMatrixLintGate is the contract of the static layer: a matrix with
// lint errors refuses to run before the first cycle, unless NoLint is set.
func TestRunMatrixLintGate(t *testing.T) {
	cfg := nodespec.Config{
		Name:    "gated",
		Port:    stbus.PortConfig{Type: stbus.Type3, DataBits: 32},
		NumInit: 2, NumTgt: 2,
		Arch:   nodespec.FullCrossbar,
		ReqArb: arb.LRU, RespArb: arb.Priority,
		// Both regions route to target 0: CRVE005, target 1 unreachable.
		Map: stbus.AddrMap{
			{Base: 0x1000, Size: 0x1000, Target: 0},
			{Base: 0x2000, Size: 0x1000, Target: 0},
		},
	}.WithDefaults()
	tc, err := testcases.ByName("basic_write_read")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Tests: []core.Test{tc}, Seeds: []int64{1}}
	if _, err := RunMatrix([]nodespec.Config{cfg}, opt); err == nil {
		t.Fatal("matrix with lint errors must refuse to run")
	} else if !strings.Contains(err.Error(), string(lint.CodeTargetUnmapped)) {
		t.Errorf("refusal should cite the diagnostic code:\n%v", err)
	}
	opt.NoLint = true
	if _, err := RunMatrix([]nodespec.Config{cfg}, opt); err != nil {
		t.Errorf("NoLint override failed: %v", err)
	}
}

// TestShippedConfigsLintCleanAndRoundTrip is the shipped-corpus contract:
// every configs/cfg*.cfg parses, passes the linter without any diagnostic,
// and survives a writer -> parser round trip unchanged.
func TestShippedConfigsLintCleanAndRoundTrip(t *testing.T) {
	dir := filepath.Join("..", "..", "configs")
	srcs, err := LoadSources(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 32 {
		t.Fatalf("only %d shipped configs, want >= 32", len(srcs))
	}
	rep := lint.CheckSet(srcs, []int64{1, 2})
	if len(rep.Diags) != 0 {
		var sb strings.Builder
		rep.Text(&sb)
		t.Fatalf("shipped configs are not lint-clean:\n%s", sb.String())
	}
	for _, src := range srcs {
		src := src
		t.Run(filepath.Base(src.File), func(t *testing.T) {
			back, err := ParseConfig(strings.NewReader(FormatConfig(src.Cfg)))
			if err != nil {
				t.Fatalf("round trip does not parse: %v", err)
			}
			if back.String() != src.Cfg.String() {
				t.Errorf("round trip changed config:\n%v\n%v", src.Cfg, back)
			}
			if len(back.Map) != len(src.Cfg.Map) {
				t.Errorf("round trip changed map: %v -> %v", src.Cfg.Map, back.Map)
			}
		})
	}
}
