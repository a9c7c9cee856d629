// Package fabric is the whole-topology static-analysis layer: where
// internal/lint judges one node configuration at a time, fabric elaborates a
// multi-node bind/port graph — nodes, converters, memories, register
// decoders and external initiators wired back to back like the paper's
// Figure 1 — without constructing a simulator, and checks the graph as a
// whole. It is the admissibility oracle for generated fabrics (ROADMAP item
// 4): a topology that passes has compatible port configurations on every
// bind edge, no black-holed or shadowed address windows across hops, no
// dangling or doubly-driven port bundles, distinguishable source IDs on
// every return path, and an acyclic (therefore levelizable) bind graph.
//
// Topologies are described in a line-oriented *.fab file:
//
//	# instances
//	node  nodeA  nodeA.cfg            # config path, relative to the .fab file
//	conv  sz     t3/64/little t3/32/little
//	init  cpu    t3/64/little src=0
//	mem   ram    t3/32/little 0x1000:0x1000
//	regdec regs  t2/32/little 0x2000:8  # base:num_regs (4 bytes per register)
//
//	# edges: bind FROM TO, request flow left to right
//	bind  cpu      sz.up
//	bind  sz.down  nodeA.init0
//	bind  nodeA.tgt0 ram
//
// A port spec is type/data_bits/endian with an optional /addr_bits
// (default 32): t3/64/little, t2/32/big/40. Port references are
// instance.port (node: init0..initN-1, tgt0..tgtN-1; converter: up, down);
// single-port endpoints (init, mem, regdec) are referenced by bare instance
// name. bind's FROM must be a port where the component drives requests
// (init, conv.down, node.tgtK) and TO one where it receives them (mem,
// regdec, conv.up, node.initK).
package fabric

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"crve/internal/lint"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// Role is the request-flow direction of a port bundle.
type Role int

const (
	// RoleInit marks a port where the owning component drives requests
	// (external initiator, converter down side, node target port).
	RoleInit Role = iota
	// RoleTgt marks a port where the owning component receives requests
	// (memory, register decoder, converter up side, node initiator port).
	RoleTgt
)

func (r Role) String() string {
	if r == RoleInit {
		return "request-driving"
	}
	return "request-receiving"
}

// Kind discriminates the instance types of a topology.
type Kind int

const (
	KindNode Kind = iota
	KindConv
	KindInit
	KindMem
	KindRegDec
)

func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindConv:
		return "conv"
	case KindInit:
		return "init"
	case KindMem:
		return "mem"
	case KindRegDec:
		return "regdec"
	default:
		return fmt.Sprintf("kind?%d", int(k))
	}
}

// Port is one port bundle of an instance in the elaborated graph. Bound is
// set during bind resolution; nil means the bundle is dangling.
type Port struct {
	Inst *Instance
	Name string // local port name: "init0", "tgt1", "up", "down", "port"
	// Idx is the port index within its role on the owning node (init2 ->
	// 2); 0 for converter and endpoint ports.
	Idx  int
	Role Role
	Cfg  stbus.PortConfig
	// Bound is the bind edge this port participates in (at most one; a
	// second bind of the same bundle is CRVE021).
	Bound *Bind
}

// Path returns instance.port, the reference syntax of the .fab file.
func (p *Port) Path() string {
	if p.Inst.Kind == KindNode || p.Inst.Kind == KindConv {
		return p.Inst.Name + "." + p.Name
	}
	return p.Inst.Name
}

// Bind is one edge of the graph: From drives requests into To.
type Bind struct {
	Line     int
	From, To *Port
}

// Instance is one component of the topology.
type Instance struct {
	Kind Kind
	Name string
	Line int // declaration line in the .fab file

	// KindNode only.
	CfgFile string          // as resolved (joined with the .fab directory)
	Cfg     nodespec.Config // defaults applied; zero when the config failed to load
	CfgOK   bool            // config loaded, parsed and lints without errors

	// KindConv only.
	Up, Down stbus.PortConfig

	// KindInit only.
	Src int // source ID driven on the src wires (default: declaration order)

	// KindInit, KindMem, KindRegDec.
	Port stbus.PortConfig

	// KindMem, KindRegDec: the address window the endpoint serves
	// ([Base, Base+Size), regdec: Size = 4 * num_regs).
	Base, Size uint64

	// Ports are the instance's bundles in declaration order: nodes have
	// init0..initN-1 then tgt0..tgtN-1, converters up then down, endpoints a
	// single bundle.
	Ports []*Port
}

// PortByName resolves a local port name ("" for single-port endpoints).
func (in *Instance) PortByName(name string) *Port {
	for _, p := range in.Ports {
		if p.Name == name {
			return p
		}
	}
	if name == "" && len(in.Ports) == 1 {
		return in.Ports[0]
	}
	return nil
}

// Topology is the elaborated bind/port graph of one .fab file plus the
// diagnostics accumulated while building it.
type Topology struct {
	File   string
	Insts  []*Instance
	Binds  []*Bind
	byName map[string]*Instance

	// Configs are the node configuration sources referenced by the topology,
	// deduplicated by path, in first-reference order. Check lints each of
	// them, so a fabric report covers the per-node rules too.
	Configs []lint.Source

	// Diags holds the parse- and elaboration-stage diagnostics (CRVE000:
	// syntax, unknown references, unreadable configs). Check prepends them
	// to its report.
	Diags []lint.Diagnostic
}

// ConfigLoader loads one node configuration file into a lint source. It is
// a parameter (rather than a direct call into internal/regress) so regress
// can depend on fabric for its gate without an import cycle; callers outside
// regress use regress.LintSet, which supplies the standard loader.
type ConfigLoader func(path string) (lint.Source, error)

// LoadFile parses the topology file at path, loading referenced node
// configurations through load. Only I/O failures on the .fab file itself are
// returned as errors; everything else — syntax, unknown references,
// unreadable configs — becomes a CRVE000 diagnostic on the topology, so a
// directory of topologies lints in one pass like a directory of configs.
func LoadFile(path string, load ConfigLoader) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(path, f, load), nil
}

// CheckFile is the LoadFile + Check convenience used by the CLI gates.
func CheckFile(path string, load ConfigLoader) (*lint.Report, error) {
	t, err := LoadFile(path, load)
	if err != nil {
		return nil, err
	}
	return t.Check(), nil
}

// Parse reads a topology description from r. file names the source for
// diagnostic positions and anchors relative config paths.
func Parse(file string, r io.Reader, load ConfigLoader) *Topology {
	t := &Topology{File: file, byName: map[string]*Instance{}}
	loaded := map[string]lint.Source{}
	numInits := 0
	type pendingBind struct {
		line     int
		from, to string
	}
	var pending []pendingBind

	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		kw, args := fields[0], fields[1:]
		switch kw {
		case "node":
			if !t.wantArgs(line, kw, args, 2, "node NAME CONFIG_PATH") {
				continue
			}
			in := t.declare(line, KindNode, args[0])
			if in == nil {
				continue
			}
			in.CfgFile = args[1]
			if dir := filepath.Dir(file); dir != "." && !filepath.IsAbs(in.CfgFile) {
				in.CfgFile = filepath.Join(dir, in.CfgFile)
			}
			src, ok := loaded[in.CfgFile]
			if !ok {
				var err error
				src, err = load(in.CfgFile)
				if err != nil {
					t.errf(line, "node %s: cannot load config: %v", in.Name, err)
					continue
				}
				loaded[in.CfgFile] = src
				t.Configs = append(t.Configs, src)
			}
			in.Cfg = src.Cfg.WithDefaults()
			in.CfgOK = true // demoted by Check when the config lints with errors
			t.nodePorts(in)
		case "conv":
			if !t.wantArgs(line, kw, args, 3, "conv NAME UP_SPEC DOWN_SPEC") {
				continue
			}
			up, err := ParsePortSpec(args[1])
			if err != nil {
				t.errf(line, "conv %s: %v", args[0], err)
				continue
			}
			down, err := ParsePortSpec(args[2])
			if err != nil {
				t.errf(line, "conv %s: %v", args[0], err)
				continue
			}
			in := t.declare(line, KindConv, args[0])
			if in == nil {
				continue
			}
			in.Up, in.Down = up, down
			in.Ports = []*Port{
				{Inst: in, Name: "up", Role: RoleTgt, Cfg: up},
				{Inst: in, Name: "down", Role: RoleInit, Cfg: down},
			}
		case "init":
			if len(args) != 2 && len(args) != 3 {
				t.errf(line, "init takes 2 or 3 arguments (init NAME SPEC [src=N]), got %d", len(args))
				continue
			}
			cfg, err := ParsePortSpec(args[1])
			if err != nil {
				t.errf(line, "init %s: %v", args[0], err)
				continue
			}
			src := numInits
			if len(args) == 3 {
				val, ok := strings.CutPrefix(args[2], "src=")
				if !ok {
					t.errf(line, "init %s: expected src=N, got %q", args[0], args[2])
					continue
				}
				src, err = strconv.Atoi(val)
				if err != nil {
					t.errf(line, "init %s: bad src %q", args[0], val)
					continue
				}
			}
			in := t.declare(line, KindInit, args[0])
			if in == nil {
				continue
			}
			numInits++
			in.Port, in.Src = cfg, src
			in.Ports = []*Port{{Inst: in, Name: "port", Role: RoleInit, Cfg: cfg}}
		case "mem", "regdec":
			usage := kw + " NAME SPEC BASE:SIZE"
			if kw == "regdec" {
				usage = "regdec NAME SPEC BASE:NUM_REGS"
			}
			if !t.wantArgs(line, kw, args, 3, usage) {
				continue
			}
			cfg, err := ParsePortSpec(args[1])
			if err != nil {
				t.errf(line, "%s %s: %v", kw, args[0], err)
				continue
			}
			base, size, err := parseWindow(args[2])
			if err != nil {
				t.errf(line, "%s %s: %v", kw, args[0], err)
				continue
			}
			kind := KindMem
			if kw == "regdec" {
				kind = KindRegDec
				size *= 4 // the decoder serves 4 bytes per register
			}
			in := t.declare(line, kind, args[0])
			if in == nil {
				continue
			}
			in.Port, in.Base, in.Size = cfg, base, size
			in.Ports = []*Port{{Inst: in, Name: "port", Role: RoleTgt, Cfg: cfg}}
		case "bind":
			if !t.wantArgs(line, kw, args, 2, "bind FROM TO") {
				continue
			}
			pending = append(pending, pendingBind{line, args[0], args[1]})
		default:
			t.errf(line, "unknown directive %q", kw)
		}
	}
	if err := sc.Err(); err != nil {
		t.errf(line, "%v", err)
	}

	// Binds resolve in a second pass so edges may reference instances
	// declared later in the file.
	for _, pb := range pending {
		from := t.resolvePort(pb.line, pb.from)
		to := t.resolvePort(pb.line, pb.to)
		if from == nil || to == nil {
			continue
		}
		t.Binds = append(t.Binds, &Bind{Line: pb.line, From: from, To: to})
	}
	return t
}

// declare registers a new instance, rejecting duplicate names.
func (t *Topology) declare(line int, kind Kind, name string) *Instance {
	if strings.ContainsAny(name, ".=") || name == "" {
		t.errf(line, "bad instance name %q", name)
		return nil
	}
	if prev, ok := t.byName[name]; ok {
		t.errf(line, "instance %s already declared on line %d", name, prev.Line)
		return nil
	}
	in := &Instance{Kind: kind, Name: name, Line: line}
	t.byName[name] = in
	t.Insts = append(t.Insts, in)
	return in
}

// nodePorts builds a node's port bundles from its configuration. A config
// with insane port counts gets no bundles: every bind referencing them then
// fails to resolve, which is the right cascade (the count itself is already
// a CRVE014 on the config).
func (t *Topology) nodePorts(in *Instance) {
	if in.Cfg.NumInit < 1 || in.Cfg.NumInit > nodespec.MaxPorts ||
		in.Cfg.NumTgt < 1 || in.Cfg.NumTgt > nodespec.MaxPorts {
		return
	}
	for i := 0; i < in.Cfg.NumInit; i++ {
		in.Ports = append(in.Ports, &Port{
			Inst: in, Name: fmt.Sprintf("init%d", i), Idx: i, Role: RoleTgt, Cfg: in.Cfg.Port,
		})
	}
	for i := 0; i < in.Cfg.NumTgt; i++ {
		in.Ports = append(in.Ports, &Port{
			Inst: in, Name: fmt.Sprintf("tgt%d", i), Idx: i, Role: RoleInit, Cfg: in.Cfg.Port,
		})
	}
}

// resolvePort resolves an instance.port (or bare endpoint) reference.
func (t *Topology) resolvePort(line int, ref string) *Port {
	instName, portName, _ := strings.Cut(ref, ".")
	in, ok := t.byName[instName]
	if !ok {
		t.errf(line, "bind references unknown instance %q", instName)
		return nil
	}
	p := in.PortByName(portName)
	if p == nil {
		t.errf(line, "instance %s (%v) has no port %q", instName, in.Kind, portName)
		return nil
	}
	return p
}

func (t *Topology) wantArgs(line int, kw string, args []string, n int, usage string) bool {
	if len(args) != n {
		t.errf(line, "%s takes %d arguments (%s), got %d", kw, n, usage, len(args))
		return false
	}
	return true
}

// errf records a parse/elaboration failure as a CRVE000 diagnostic.
func (t *Topology) errf(line int, format string, args ...any) {
	t.Diags = append(t.Diags, lint.Diagnostic{
		Pos:      lint.Position{File: t.File, Line: line},
		Code:     lint.CodeParse,
		Severity: lint.Error,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// ParsePortSpec parses the type/data_bits/endian[/addr_bits] port syntax of
// topology files, e.g. "t3/64/little" or "t2/32/big/40".
func ParsePortSpec(spec string) (stbus.PortConfig, error) {
	var cfg stbus.PortConfig
	parts := strings.Split(spec, "/")
	if len(parts) != 3 && len(parts) != 4 {
		return cfg, fmt.Errorf("bad port spec %q (want type/data_bits/endian[/addr_bits])", spec)
	}
	switch parts[0] {
	case "t1":
		cfg.Type = stbus.Type1
	case "t2":
		cfg.Type = stbus.Type2
	case "t3":
		cfg.Type = stbus.Type3
	default:
		return cfg, fmt.Errorf("bad protocol type %q in port spec", parts[0])
	}
	bits, err := strconv.Atoi(parts[1])
	if err != nil {
		return cfg, fmt.Errorf("bad data width %q in port spec", parts[1])
	}
	cfg.DataBits = bits
	switch parts[2] {
	case "little":
		cfg.Endian = stbus.LittleEndian
	case "big":
		cfg.Endian = stbus.BigEndian
	default:
		return cfg, fmt.Errorf("bad endianness %q in port spec", parts[2])
	}
	if len(parts) == 4 {
		ab, err := strconv.Atoi(parts[3])
		if err != nil {
			return cfg, fmt.Errorf("bad address width %q in port spec", parts[3])
		}
		cfg.AddrBits = ab
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// parseWindow parses BASE:SIZE with 0x-prefixed or decimal numbers.
func parseWindow(s string) (base, size uint64, err error) {
	bs, ss, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad window %q (want base:size)", s)
	}
	if base, err = strconv.ParseUint(bs, 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad window base %q", bs)
	}
	if size, err = strconv.ParseUint(ss, 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad window size %q", ss)
	}
	return base, size, nil
}
