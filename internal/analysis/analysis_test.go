package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The analyzers key on the import paths of the real repo packages; the test
// fixtures are tiny stand-ins typechecked under those paths.
const stubStbus = `package stbus
import "crve/internal/sim"
type Type int
type Endianness int
const (
	Type1 Type = 1
	Type2 Type = 2
	Type3 Type = 3
)
const (
	LittleEndian Endianness = 0
	BigEndian    Endianness = 1
)
type PortConfig struct {
	Type     Type
	DataBits int
	AddrBits int
	Endian   Endianness
}
func (c PortConfig) WithDefaults() PortConfig { return c }
type Port struct {
	Cfg  PortConfig
	Name string
	Req, Gnt, Opc, Data *sim.Signal
	RReq, RGnt, RData   *sim.Signal
}
func NewPort(sc sim.Scope, name string, cfg PortConfig) *Port { return &Port{Cfg: cfg, Name: name} }
func Bind(sm *sim.Simulator, initSide, tgtSide *Port)         {}
`

const stubRtl = `package rtl
import (
	"crve/internal/nodespec"
	"crve/internal/sim"
	"crve/internal/stbus"
)
type NodeConfig = nodespec.Config
type Node struct {
	Cfg  NodeConfig
	Init []*stbus.Port
	Tgt  []*stbus.Port
}
func NewNode(sc sim.Scope, cfg NodeConfig) (*Node, error) { return &Node{}, nil }
type ConverterConfig struct {
	Name     string
	Up, Down stbus.PortConfig
	Pipe     int
}
type Converter struct {
	Cfg      ConverterConfig
	Up, Down *stbus.Port
}
func NewConverter(sc sim.Scope, cfg ConverterConfig) (*Converter, error) { return &Converter{}, nil }
func NewSizeConverter(sc sim.Scope, name string, up stbus.PortConfig, downBits int) (*Converter, error) {
	return &Converter{}, nil
}
func NewTypeConverter(sc sim.Scope, name string, up stbus.PortConfig, downType stbus.Type) (*Converter, error) {
	return &Converter{}, nil
}
type MemoryConfig struct {
	Name       string
	Port       stbus.PortConfig
	Base, Size uint64
	Latency    int
}
type Memory struct {
	Cfg  MemoryConfig
	Port *stbus.Port
}
func NewMemory(sc sim.Scope, cfg MemoryConfig) (*Memory, error) { return &Memory{}, nil }
type RegDecoderConfig struct {
	Name    string
	Port    stbus.PortConfig
	Base    uint64
	NumRegs int
}
type RegDecoder struct {
	Cfg  RegDecoderConfig
	Port *stbus.Port
}
func NewRegDecoder(sc sim.Scope, cfg RegDecoderConfig) (*RegDecoder, error) { return &RegDecoder{}, nil }
`

const stubNodespec = `package nodespec
import "crve/internal/stbus"
type Config struct {
	Name            string
	Port            stbus.PortConfig
	NumInit, NumTgt int
}
func (c Config) WithDefaults() Config { return c }
func (c Config) Validate() error      { return nil }
`

const stubSim = `package sim
type Bits struct{ w uint64 }
func (b Bits) Uint64() uint64 { return b.w }
type Signal struct{ cur Bits }
func (s *Signal) Get() Bits       { return s.cur }
func (s *Signal) U64() uint64     { return s.cur.Uint64() }
func (s *Signal) Bool() bool      { return false }
func (s *Signal) Set(v Bits)      {}
func (s *Signal) SetU64(v uint64) {}
func (s *Signal) SetBool(v bool)  {}
type Simulator struct{}
func New() *Simulator                                                     { return &Simulator{} }
func (sm *Simulator) Signal(name string, width int) *Signal               { return &Signal{} }
func (sm *Simulator) Bool(name string) *Signal                            { return &Signal{} }
func (sm *Simulator) Seq(name string, fn func())                          {}
func (sm *Simulator) CombOut(name string, fn func(), outputs []*Signal, sensitivity ...*Signal) {}
func (sm *Simulator) AtCycleEnd(fn func())                                {}
func (sm *Simulator) Run(n int) error                                     { return nil }
func (sm *Simulator) RunUntil(done func() bool, limit int) error          { return nil }
func (sm *Simulator) Step() error                                         { return nil }
type Scope struct{ sm *Simulator }
func (sm *Simulator) Root() Scope                                     { return Scope{sm} }
func (sc Scope) Signal(name string, width int) *Signal                { return &Signal{} }
func (sc Scope) Bool(name string) *Signal                             { return &Signal{} }
func (sc Scope) Seq(name string, fn func())                           {}
func (sc Scope) CombOut(name string, fn func(), outputs []*Signal, sensitivity ...*Signal) {}
`

// mapImporter resolves imports from packages already typechecked in the
// test.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("test importer: unknown package %q", path)
}

// check typechecks one source file as package path and returns everything an
// analyzer pass needs.
func check(t *testing.T, imp mapImporter, path, filename, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}, pkg, info
}

// stubs typechecks the stand-in stbus and nodespec packages.
func stubs(t *testing.T) mapImporter {
	t.Helper()
	imp := mapImporter{}
	fset := token.NewFileSet()
	for _, p := range []struct{ path, src string }{
		{"crve/internal/sim", stubSim},
		{"crve/internal/stbus", stubStbus},
		{"crve/internal/nodespec", stubNodespec},
		{"crve/internal/rtl", stubRtl},
	} {
		f, err := parser.ParseFile(fset, p.path+"/stub.go", p.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.path, fset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatal(err)
		}
		imp[p.path] = pkg
	}
	return imp
}

// runOn runs one analyzer over a client source file and returns the
// diagnostic messages with line numbers.
func runOn(t *testing.T, a *Analyzer, filename, src string) []string {
	t.Helper()
	fset, files, pkg, info := check(t, stubs(t), "crve/example/client", filename, src)
	diags, err := Run([]*Analyzer{a}, fset, files, pkg, info)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%d: %s", fset.Position(d.Pos).Line, d.Message))
	}
	return out
}

func TestConfigLiteralFlagsRawLiteralArgument(t *testing.T) {
	src := `package client
import "crve/internal/nodespec"
func build(cfg nodespec.Config) error { return cfg.Validate() }
func bad() {
	build(nodespec.Config{Name: "raw"}) // line 5: flagged
}
func good() {
	build(nodespec.Config{Name: "ok"}.WithDefaults())
	cfg := nodespec.Config{Name: "var"}
	build(cfg.WithDefaults())
}
`
	got := runOn(t, ConfigLiteral, "client.go", src)
	if len(got) != 1 || !strings.HasPrefix(got[0], "5: ") {
		t.Fatalf("want exactly one finding on line 5, got %v", got)
	}
	if !strings.Contains(got[0], "WithDefaults") || !strings.Contains(got[0], "build") {
		t.Errorf("message should name the call and the fix: %v", got[0])
	}
}

func TestPortWidthFlagsMissingAndBadWidths(t *testing.T) {
	src := `package client
import (
	"crve/internal/nodespec"
	"crve/internal/stbus"
)
func newPort(cfg stbus.PortConfig) {}
func bad() {
	newPort(stbus.PortConfig{Type: stbus.Type3})                 // line 8: no DataBits
	newPort(stbus.PortConfig{Type: stbus.Type3, DataBits: 24})   // line 9: bad width
	_ = nodespec.Config{Port: stbus.PortConfig{Type: stbus.Type2}} // line 10: field value, no DataBits
	newPort(stbus.PortConfig{stbus.Type2, 12, 32, 0})            // line 11: positional, bad width
}
func good() {
	newPort(stbus.PortConfig{Type: stbus.Type3, DataBits: 32})
	_ = nodespec.Config{Port: stbus.PortConfig{Type: stbus.Type2, DataBits: 64}}
	newPort(stbus.PortConfig{}.WithDefaults()) // empty literal = deliberate zero value
	w := 24
	newPort(stbus.PortConfig{Type: stbus.Type3, DataBits: w}) // non-constant: not judged
}
`
	got := runOn(t, PortWidth, "client.go", src)
	if len(got) != 4 {
		t.Fatalf("want 4 findings, got %d: %v", len(got), got)
	}
	for i, line := range []string{"8: ", "9: ", "10: ", "11: "} {
		if !strings.HasPrefix(got[i], line) {
			t.Errorf("finding %d on wrong line: %v", i, got[i])
		}
	}
}

func TestPortWidthSkipsTestFiles(t *testing.T) {
	src := `package client
import "crve/internal/stbus"
func newPort(cfg stbus.PortConfig) {}
func deliberatelyBad() {
	newPort(stbus.PortConfig{Type: stbus.Type2, DataBits: 7}) // exercising the panic path
}
`
	if got := runOn(t, PortWidth, "client_test.go", src); len(got) != 0 {
		t.Fatalf("portwidth must not fire in _test.go files, got %v", got)
	}
}

func TestSignalReadFlagsElaborationReads(t *testing.T) {
	src := `package client
import "crve/internal/sim"
func elaborate(sm *sim.Simulator) {
	d := sm.Signal("d", 8)
	q := sm.Signal("q", 8)
	if d.Bool() { // line 6: read before the simulator has run
		return
	}
	sm.Seq("reg", func() { q.Set(d.Get()) }) // callback read: fine
	_ = q.U64() // line 10: elaboration read, value not settled
}
`
	got := runOn(t, SignalRead, "client.go", src)
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got %d: %v", len(got), got)
	}
	for i, line := range []string{"6: ", "10: "} {
		if !strings.HasPrefix(got[i], line) {
			t.Errorf("finding %d on wrong line: %v", i, got[i])
		}
	}
	if !strings.Contains(got[0], "Bool") || !strings.Contains(got[1], "U64") {
		t.Errorf("messages should name the read method: %v", got)
	}
}

func TestSignalReadFlagsScopeRegistration(t *testing.T) {
	src := `package client
import "crve/internal/sim"
func build(sc sim.Scope) {
	req := sc.Bool("req") // constructor, not a read
	gnt := sc.Bool("gnt")
	sc.Seq("grant", func() { gnt.SetBool(req.Bool()) })
	if gnt.Bool() { // line 7: elaboration read under a Scope registration
		panic("unsettled")
	}
}
`
	got := runOn(t, SignalRead, "client.go", src)
	if len(got) != 1 || !strings.HasPrefix(got[0], "7: ") {
		t.Fatalf("want exactly one finding on line 7, got %v", got)
	}
}

func TestSignalReadFlagsCombOutRegistration(t *testing.T) {
	src := `package client
import "crve/internal/sim"
func build(sc sim.Scope) {
	req := sc.Bool("req")
	gnt := sc.Bool("gnt")
	sc.CombOut("grant", func() { gnt.SetBool(req.Bool()) }, []*sim.Signal{gnt}, req)
	if gnt.Bool() { // line 7: elaboration read under a CombOut registration
		panic("unsettled")
	}
}
`
	got := runOn(t, SignalRead, "client.go", src)
	if len(got) != 1 || !strings.HasPrefix(got[0], "7: ") {
		t.Fatalf("want exactly one finding on line 7, got %v", got)
	}
}

func TestSignalReadAllowsReadsAfterRun(t *testing.T) {
	src := `package client
import "crve/internal/sim"
func simulate() uint64 {
	sm := sim.New()
	d := sm.Signal("d", 8)
	q := sm.Signal("q", 8)
	sm.Seq("reg", func() { q.Set(d.Get()) })
	if err := sm.Run(10); err != nil {
		return 0
	}
	return q.U64() // settled: the simulator has run
}
`
	if got := runOn(t, SignalRead, "client.go", src); len(got) != 0 {
		t.Fatalf("reads after Run must not be flagged, got %v", got)
	}
}

func TestSignalReadIgnoresHelpersWithoutRegistration(t *testing.T) {
	src := `package client
import "crve/internal/sim"
func fire(req, gnt *sim.Signal) bool { return req.Bool() && gnt.Bool() }
func watch(sm *sim.Simulator, q *sim.Signal) {
	sm.AtCycleEnd(func() {
		_ = q.U64() // inside the callback: fine
	})
}
`
	if got := runOn(t, SignalRead, "client.go", src); len(got) != 0 {
		t.Fatalf("helpers that register nothing must not be flagged, got %v", got)
	}
}

// bindcheckFixture is the seeded mismatched-Bind elaboration: it mirrors the
// examples/interconnect idiom (config vars, node + converter + memory
// construction) and contains exactly two provably bad Bind calls.
const bindcheckFixture = `package client
import (
	"crve/internal/nodespec"
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)
func elaborate() {
	sm := sim.New()
	root := sm.Root()
	p32 := stbus.PortConfig{Type: stbus.Type3, DataBits: 32}.WithDefaults()
	p64 := stbus.PortConfig{Type: stbus.Type3, DataBits: 64}.WithDefaults()
	node, _ := rtl.NewNode(root, nodespec.Config{Name: "n", Port: p32, NumInit: 2, NumTgt: 2}.WithDefaults())
	cpu := stbus.NewPort(root, "cpu", p64)
	stbus.Bind(sm, cpu, node.Init[0]) // line 15: data_bits 64 vs 32
	conv, _ := rtl.NewSizeConverter(root, "sz", p64, 32)
	stbus.Bind(sm, stbus.NewPort(root, "dsp", p64), conv.Up) // clean: both 64
	stbus.Bind(sm, conv.Down, node.Init[1])                  // clean: both 32
	mem, _ := rtl.NewMemory(root, rtl.MemoryConfig{Name: "m", Port: p32, Base: 0, Size: 4096})
	stbus.Bind(sm, node.Tgt[0], mem.Port) // clean
	p32t2 := p32
	p32t2.Type = stbus.Type2
	regs, _ := rtl.NewRegDecoder(root, rtl.RegDecoderConfig{Name: "r", Port: p32t2, Base: 0, NumRegs: 8})
	stbus.Bind(sm, node.Tgt[1], regs.Port) // line 24: type T3 vs T2
}
`

func TestBindcheckFlagsMismatchedBinds(t *testing.T) {
	got := runOn(t, Bindcheck, "client.go", bindcheckFixture)
	if len(got) != 2 {
		t.Fatalf("want exactly 2 findings, got %d: %v", len(got), got)
	}
	if !strings.HasPrefix(got[0], "15: ") || !strings.Contains(got[0], "data_bits 64 vs 32") {
		t.Errorf("finding 0 should be the width mismatch on line 15: %v", got[0])
	}
	if !strings.HasPrefix(got[1], "24: ") || !strings.Contains(got[1], "type T3 vs T2") {
		t.Errorf("finding 1 should be the type mismatch on line 24: %v", got[1])
	}
	for _, msg := range got {
		if !strings.Contains(msg, "panics at elaboration") {
			t.Errorf("message should say why this matters: %v", msg)
		}
	}
}

func TestBindcheckSkipsTestFiles(t *testing.T) {
	if got := runOn(t, Bindcheck, "client_test.go", bindcheckFixture); len(got) != 0 {
		t.Fatalf("bindcheck must not fire in _test.go files (they exercise the panic path), got %v", got)
	}
}

func TestBindcheckTracksConvertersAndCopies(t *testing.T) {
	src := `package client
import (
	"crve/internal/rtl"
	"crve/internal/sim"
	"crve/internal/stbus"
)
func elaborate(sm *sim.Simulator, root sim.Scope) {
	p32 := stbus.PortConfig{Type: stbus.Type3, DataBits: 32}
	ty, _ := rtl.NewTypeConverter(root, "ty", p32, stbus.Type2)
	down := ty.Down // copied port reference keeps its bundle
	stbus.Bind(sm, down, stbus.NewPort(root, "t3", p32)) // line 11: type T2 vs T3
	full, _ := rtl.NewConverter(root, rtl.ConverterConfig{
		Name: "c",
		Up:   stbus.PortConfig{Type: stbus.Type3, DataBits: 64},
		Down: p32,
	})
	stbus.Bind(sm, full.Up, stbus.NewPort(root, "u64", stbus.PortConfig{Type: stbus.Type3, DataBits: 64})) // clean
	stbus.Bind(sm, full.Down, stbus.NewPort(root, "big", stbus.PortConfig{
		Type: stbus.Type3, DataBits: 32, Endian: stbus.BigEndian,
	})) // line 18: endian little vs big
}
`
	got := runOn(t, Bindcheck, "client.go", src)
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got %d: %v", len(got), got)
	}
	if !strings.HasPrefix(got[0], "11: ") || !strings.Contains(got[0], "type T2 vs T3") {
		t.Errorf("finding 0 should be the converter-down type mismatch: %v", got[0])
	}
	if !strings.HasPrefix(got[1], "18: ") || !strings.Contains(got[1], "endian little vs big") {
		t.Errorf("finding 1 should be the endian mismatch: %v", got[1])
	}
}

func TestBindcheckStaysSilentWhenProvenanceIsUnknown(t *testing.T) {
	src := `package client
import (
	"crve/internal/sim"
	"crve/internal/stbus"
)
func width() int { return 64 }
func elaborate(sm *sim.Simulator, root sim.Scope, ext *stbus.Port) {
	p32 := stbus.PortConfig{Type: stbus.Type3, DataBits: 32}
	wide := stbus.PortConfig{Type: stbus.Type3, DataBits: width()} // non-constant field
	stbus.Bind(sm, stbus.NewPort(root, "a", wide), stbus.NewPort(root, "b", p32))
	stbus.Bind(sm, ext, stbus.NewPort(root, "c", p32)) // parameter: unknown
	q := p32
	q = mystery()
	stbus.Bind(sm, stbus.NewPort(root, "d", q), stbus.NewPort(root, "e", p32)) // reassigned: unknown
}
func mystery() stbus.PortConfig { return stbus.PortConfig{} }
`
	if got := runOn(t, Bindcheck, "client.go", src); len(got) != 0 {
		t.Fatalf("unknown provenance must never be reported, got %v", got)
	}
}

const portdriveFixture = `package client
import (
	"crve/internal/sim"
	"crve/internal/stbus"
)
type bundle struct{ Req *sim.Signal }
func drive(p *stbus.Port, v stbus.Port, b bundle, s *sim.Signal, x sim.Bits) {
	p.Req.SetBool(true)  // line 8: channel signal
	p.Opc.SetU64(1)      // line 9: channel signal
	v.RData.Set(x)       // line 10: channel signal, Port by value
	p.RReq.SetBool(true) // line 11: channel signal
	p.Gnt.SetBool(true)  // handshake answer: not cached, fine
	p.RGnt.SetBool(true) // handshake answer: not cached, fine
	_ = p.Req.Bool()     // a read, fine
	b.Req.SetBool(true)  // not a stbus.Port, fine
	s.Set(x)             // a plain signal, fine
}
`

func TestPortDriveFlagsChannelWrites(t *testing.T) {
	got := runOn(t, PortDrive, "client.go", portdriveFixture)
	if len(got) != 4 {
		t.Fatalf("want 4 findings, got %d: %v", len(got), got)
	}
	for i, want := range []string{"8: direct SetBool on stbus.Port channel signal Req", "9: direct SetU64", "10: direct Set on stbus.Port channel signal RData", "11: "} {
		if !strings.HasPrefix(got[i], want) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want)
		}
	}
	if !strings.Contains(got[0], "DriveCell") {
		t.Errorf("message should name the drive methods: %v", got[0])
	}
}

func TestPortDriveSkipsTestFilesAndStbus(t *testing.T) {
	if got := runOn(t, PortDrive, "client_test.go", portdriveFixture); len(got) != 0 {
		t.Fatalf("portdrive must not fire in _test.go files, got %v", got)
	}
	// Package stbus itself implements the drive methods and Bind.
	src := `package stbus
import "crve/internal/sim"
type Port struct{ Req *sim.Signal }
func (p *Port) IdleReq() { p.Req.SetBool(false) }
`
	fset, files, pkg, info := check(t, stubs(t), "crve/internal/stbus", "port.go", src)
	diags, err := Run([]*Analyzer{PortDrive}, fset, files, pkg, info)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("portdrive must not fire inside package stbus, got %v", diags)
	}
}

func TestAnalyzersAreRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer %s", a.Name)
		}
		names[a.Name] = true
	}
	if !names["configliteral"] || !names["portwidth"] || !names["signalread"] || !names["bindcheck"] || !names["portdrive"] {
		t.Errorf("expected analyzers missing: %v", names)
	}
}

func TestPrintFlagsJSONShape(t *testing.T) {
	var buf bytes.Buffer
	printFlagsJSON(&buf)
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(buf.Bytes(), &flags); err != nil {
		t.Fatalf("-flags output is not the JSON shape go vet expects: %v\n%s", err, buf.String())
	}
}

// TestVettoolEndToEnd is the acceptance check for the vet protocol: build
// cmd/crvevet and let the real go command drive it over this repository.
func TestVettoolEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole repo")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not available")
	}
	tool := filepath.Join(t.TempDir(), "crvevet")
	build := exec.Command(goTool, "build", "-o", tool, "crve/cmd/crvevet")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building crvevet: %v\n%s", err, out)
	}
	vet := exec.Command(goTool, "vet", "-vettool="+tool, "./...")
	vet.Dir = repoRoot(t)
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool reported findings or failed: %v\n%s", err, out)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(dir)) // internal/analysis -> repo root
}
