// Package regress implements the paper's regression tool: it loads node
// configurations from parameter text files ("regression tool can load text
// files defining HDL parameters of each of them; it's sufficient to indicate
// the directory"), generates and runs the test suites on both models with
// the same seeds in batch mode, produces verification and functional-
// coverage reports plus waveform dumps, and calls the STBus Analyzer for the
// bus-accurate comparison. The paper's GUI front end is replaced by the
// cmd/regress CLI (see DESIGN.md substitutions).
package regress

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"crve/internal/arb"
	"crve/internal/lint"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// parseLines scans one parameter file, applying every `key = value` line and
// collecting (rather than short-circuiting on) per-line failures as CRVE000
// diagnostics positioned in file. It returns the partially-filled
// configuration and the line on which each key was set.
func parseLines(file string, r io.Reader) (nodespec.Config, map[string]int, []lint.Diagnostic) {
	cfg := nodespec.Config{}
	keyLine := map[string]int{}
	var diags []lint.Diagnostic
	fail := func(line int, err error) {
		diags = append(diags, lint.Diagnostic{
			Pos:      lint.Position{File: file, Line: line},
			Code:     lint.CodeParse,
			Severity: lint.Error,
			Msg:      err.Error(),
		})
	}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		key, val, ok := strings.Cut(text, "=")
		if !ok {
			fail(line, fmt.Errorf("expected key = value"))
			continue
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if err := applyParam(&cfg, key, val); err != nil {
			fail(line, err)
			continue
		}
		keyLine[key] = line
	}
	if err := sc.Err(); err != nil {
		fail(line, err)
	}
	return cfg, keyLine, diags
}

// ParseConfig reads one HDL-parameter file. The format is line-oriented
// `key = value` with `#` comments:
//
//	name      = cfg01
//	type      = t3            # t2 | t3
//	data_bits = 32
//	endian    = little        # little | big
//	num_init  = 3
//	num_tgt   = 2
//	arch      = full          # shared | full | partial
//	req_arb   = lru           # priority|roundrobin|lru|latency|bandwidth|programmable
//	resp_arb  = priority
//	pipe      = 4
//	map       = 0x1000:0x1000:0, 0x2000:0x1000:1   # base:size:target
//	allowed   = 11,10         # partial only: one row per initiator
//	prog_port = true
//	prog_base = 0x8000
//
// Every broken line is reported (see configErr) instead of stopping at the
// first. For positioned, coded diagnostics use ParseSource and
// internal/lint instead.
func ParseConfig(r io.Reader) (nodespec.Config, error) {
	src := ParseSource("", r)
	return src.Cfg, configErr(src)
}

// configErr is the error form of a parsed source: every broken line, one
// `regress: line N:` entry each, joined — or, when the file parsed cleanly,
// the semantic Validate error.
func configErr(src lint.Source) error {
	if len(src.Parse) == 0 {
		return src.Cfg.Validate()
	}
	errs := make([]error, len(src.Parse))
	for i, d := range src.Parse {
		errs[i] = fmt.Errorf("regress: line %d: %s", d.Pos.Line, d.Msg)
	}
	return errors.Join(errs...)
}

// ParseSource reads one HDL-parameter file into a lint.Source: the parsed
// configuration plus the per-key line positions the static analyzers use to
// anchor diagnostics. Parse failures become CRVE000 diagnostics on the
// source rather than an error, so a whole configuration directory can be
// linted in one pass.
func ParseSource(file string, r io.Reader) lint.Source {
	cfg, keyLine, diags := parseLines(file, r)
	return lint.Source{File: file, Cfg: cfg.WithDefaults(), KeyLine: keyLine, Parse: diags}
}

// ParseNamed is ParseSource for a loader that names configurations after
// their source: one without a `name` line is called name, not "node". A
// file's name is its base name and the i-th inline text of a request is
// config<i>, plain identifiers, because the name lands in signal scopes,
// -out paths and wave routes.
func ParseNamed(file, name string, r io.Reader) lint.Source {
	src := ParseSource(file, r)
	if src.Cfg.Name == "node" {
		src.Cfg.Name = name
	}
	return src
}

func applyParam(cfg *nodespec.Config, key, val string) error {
	parseUint := func() (uint64, error) {
		return strconv.ParseUint(strings.TrimPrefix(val, "0x"), base(val), 64)
	}
	switch key {
	case "name":
		cfg.Name = val
	case "type":
		switch val {
		case "t1":
			cfg.Port.Type = stbus.Type1
		case "t2":
			cfg.Port.Type = stbus.Type2
		case "t3":
			cfg.Port.Type = stbus.Type3
		default:
			return fmt.Errorf("bad type %q", val)
		}
	case "data_bits":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		cfg.Port.DataBits = n
	case "addr_bits":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		cfg.Port.AddrBits = n
	case "endian":
		switch val {
		case "little":
			cfg.Port.Endian = stbus.LittleEndian
		case "big":
			cfg.Port.Endian = stbus.BigEndian
		default:
			return fmt.Errorf("bad endian %q", val)
		}
	case "num_init":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		cfg.NumInit = n
	case "num_tgt":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		cfg.NumTgt = n
	case "arch":
		a, err := nodespec.ParseArch(val)
		if err != nil {
			return err
		}
		cfg.Arch = a
	case "req_arb":
		k, err := arb.ParseKind(val)
		if err != nil {
			return err
		}
		cfg.ReqArb = k
	case "resp_arb":
		k, err := arb.ParseKind(val)
		if err != nil {
			return err
		}
		cfg.RespArb = k
	case "pipe":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		cfg.PipeSize = n
	case "map":
		var m stbus.AddrMap
		for _, ent := range strings.Split(val, ",") {
			parts := strings.Split(strings.TrimSpace(ent), ":")
			if len(parts) != 3 {
				return fmt.Errorf("bad map entry %q", ent)
			}
			b, err := strconv.ParseUint(strings.TrimPrefix(parts[0], "0x"), base(parts[0]), 64)
			if err != nil {
				return err
			}
			s, err := strconv.ParseUint(strings.TrimPrefix(parts[1], "0x"), base(parts[1]), 64)
			if err != nil {
				return err
			}
			t, err := strconv.Atoi(parts[2])
			if err != nil {
				return err
			}
			m = append(m, stbus.Region{Base: b, Size: s, Target: t})
		}
		cfg.Map = m
	case "allowed":
		var rows [][]bool
		for _, rs := range strings.Split(val, ",") {
			rs = strings.TrimSpace(rs)
			row := make([]bool, len(rs))
			for i, ch := range rs {
				switch ch {
				case '1':
					row[i] = true
				case '0':
				default:
					return fmt.Errorf("bad allowed bit %q", ch)
				}
			}
			rows = append(rows, row)
		}
		cfg.Allowed = rows
	case "prog_port":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return err
		}
		cfg.ProgPort = b
	case "prog_base":
		v, err := parseUint()
		if err != nil {
			return err
		}
		cfg.ProgBase = v
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	return nil
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

// FormatConfig renders a configuration back into the parameter-file format,
// so the matrix generator can materialise a configuration directory.
func FormatConfig(cfg nodespec.Config) string {
	cfg = cfg.WithDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "name      = %s\n", cfg.Name)
	fmt.Fprintf(&sb, "type      = t%d\n", int(cfg.Port.Type))
	fmt.Fprintf(&sb, "data_bits = %d\n", cfg.Port.DataBits)
	fmt.Fprintf(&sb, "addr_bits = %d\n", cfg.Port.AddrBits)
	fmt.Fprintf(&sb, "endian    = %v\n", cfg.Port.Endian)
	fmt.Fprintf(&sb, "num_init  = %d\n", cfg.NumInit)
	fmt.Fprintf(&sb, "num_tgt   = %d\n", cfg.NumTgt)
	fmt.Fprintf(&sb, "arch      = %v\n", cfg.Arch)
	fmt.Fprintf(&sb, "req_arb   = %v\n", cfg.ReqArb)
	fmt.Fprintf(&sb, "resp_arb  = %v\n", cfg.RespArb)
	fmt.Fprintf(&sb, "pipe      = %d\n", cfg.PipeSize)
	var ents []string
	for _, r := range cfg.Map {
		ents = append(ents, fmt.Sprintf("0x%x:0x%x:%d", r.Base, r.Size, r.Target))
	}
	fmt.Fprintf(&sb, "map       = %s\n", strings.Join(ents, ", "))
	if cfg.Arch == nodespec.PartialCrossbar {
		var rows []string
		for _, row := range cfg.Allowed {
			bits := make([]byte, len(row))
			for i, b := range row {
				if b {
					bits[i] = '1'
				} else {
					bits[i] = '0'
				}
			}
			rows = append(rows, string(bits))
		}
		fmt.Fprintf(&sb, "allowed   = %s\n", strings.Join(rows, ","))
	}
	if cfg.ProgPort {
		fmt.Fprintf(&sb, "prog_port = true\n")
		fmt.Fprintf(&sb, "prog_base = 0x%x\n", cfg.ProgBase)
	}
	return sb.String()
}

// cfgFiles resolves a configuration path: a file stands for itself, a
// directory for its *.cfg files sorted by name (subdirectories are
// skipped).
func cfgFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path) // sorted by name
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".cfg") {
			files = append(files, filepath.Join(path, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("regress: no .cfg files in %s", path)
	}
	return files, nil
}

// loadSource parses the parameter file at path. A configuration without a
// `name` line takes its file name (ParseNamed), so a file gets the same name
// (and cache key) whichever tool reads it.
func loadSource(path string) (lint.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return lint.Source{}, err
	}
	defer f.Close()
	return ParseNamed(path, strings.TrimSuffix(filepath.Base(path), ".cfg"), f), nil
}

// LoadSources parses the parameter file at path, or every *.cfg file of the
// directory at path, into lint sources. Broken files do not fail it: parse
// failures ride along as CRVE000 diagnostics, so crvelint reports every
// problem of a directory in one pass. Only I/O failures (or a directory
// without .cfg files) are errors.
func LoadSources(path string) ([]lint.Source, error) {
	files, err := cfgFiles(path)
	if err != nil {
		return nil, err
	}
	srcs := make([]lint.Source, len(files))
	for i, file := range files {
		if srcs[i], err = loadSource(file); err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// LoadConfigs is LoadSources for a run: it refuses the first file that does
// not parse or validate, listing every broken line of it.
func LoadConfigs(path string) ([]nodespec.Config, error) {
	srcs, err := LoadSources(path)
	if err != nil {
		return nil, err
	}
	cfgs := make([]nodespec.Config, len(srcs))
	for i, src := range srcs {
		if err := configErr(src); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(src.File), err)
		}
		cfgs[i] = src.Cfg
	}
	return cfgs, nil
}
