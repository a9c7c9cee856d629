package analysis

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

const (
	nodespecPath = "crve/internal/nodespec"
	stbusPath    = "crve/internal/stbus"
	simPath      = "crve/internal/sim"
	rtlPath      = "crve/internal/rtl"
	bcaPath      = "crve/internal/bca"
)

// Analyzers returns every repo-invariant analyzer, in stable order. This is
// the set cmd/crvevet serves to `go vet -vettool`.
func Analyzers() []*Analyzer {
	return []*Analyzer{Bindcheck, ConfigLiteral, PortWidth, SignalRead}
}

// ConfigLiteral flags a nodespec.Config composite literal passed directly
// as a call argument. The repo convention is to normalise a hand-built
// configuration with WithDefaults() at the construction site, so the value
// every layer sees (constructors, lint, reports) is the same one; a raw
// literal slips through today only because each constructor re-normalises
// defensively.
var ConfigLiteral = &Analyzer{
	Name: "configliteral",
	Doc: "flag nodespec.Config literals passed to a call without WithDefaults(): " +
		"normalise the configuration where it is built, not inside every consumer",
	Run: runConfigLiteral,
}

func runConfigLiteral(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.CompositeLit)
				if !ok {
					continue
				}
				if isNamed(pass.TypesInfo.Types[lit].Type, nodespecPath, "Config") {
					pass.Reportf(lit.Pos(),
						"nodespec.Config literal passed directly to %s: append .WithDefaults() so the configuration is normalised once, at the construction site",
						exprString(pass.Fset, call.Fun))
				}
			}
			return true
		})
	}
	return nil
}

// PortWidth flags stbus.PortConfig literals that flow into a port (as a
// call argument or a Port/Up/Down field of a larger config literal) without
// a usable data width: PortConfig.WithDefaults fills AddrBits but
// deliberately NOT DataBits, so stbus.NewPort panics at elaboration. A
// missing DataBits field, or a constant width that is not a power of two in
// 8..256, is a guaranteed panic the compiler cannot see.
var PortWidth = &Analyzer{
	Name: "portwidth",
	Doc: "flag stbus.PortConfig literals used to build ports without a legal DataBits: " +
		"WithDefaults leaves DataBits zero and NewPort panics at elaboration " +
		"(test files are exempt: they construct illegal configs on purpose to exercise Validate)",
	Run: runPortWidth,
}

func runPortWidth(pass *Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Package).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, arg := range n.Args {
					checkPortLiteral(pass, arg)
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						checkPortLiteral(pass, kv.Value)
					} else {
						checkPortLiteral(pass, elt)
					}
				}
			}
			return true
		})
	}
	return nil
}

// legalWidths is the DataBits domain of stbus.PortConfig.Validate.
var legalWidths = map[int64]bool{8: true, 16: true, 32: true, 64: true, 128: true, 256: true}

func checkPortLiteral(pass *Pass, expr ast.Expr) {
	lit, ok := expr.(*ast.CompositeLit)
	if !ok || len(lit.Elts) == 0 {
		// An empty PortConfig{} is the zero value, conventionally used as
		// "unset"; only a literal that sets SOME fields but no width is a
		// construction-site bug.
		return
	}
	if !isNamed(pass.TypesInfo.Types[lit].Type, stbusPath, "PortConfig") {
		return
	}
	width, found := dataBitsOf(pass, lit)
	if !found {
		pass.Reportf(lit.Pos(),
			"stbus.PortConfig literal sets no DataBits: WithDefaults leaves it 0 and NewPort panics at elaboration")
		return
	}
	if width != nil && !legalWidths[*width] {
		pass.Reportf(lit.Pos(),
			"stbus.PortConfig literal sets DataBits to %d, which is not a legal bus width (8..256, power of two): NewPort panics at elaboration", *width)
	}
}

// dataBitsOf locates the DataBits field of a PortConfig literal. It returns
// found=false when the field is absent, and a nil width when the field is
// set to a non-constant expression (which the analyzer cannot judge).
func dataBitsOf(pass *Pass, lit *ast.CompositeLit) (width *int64, found bool) {
	constWidth := func(e ast.Expr) *int64 {
		tv := pass.TypesInfo.Types[e]
		if tv.Value == nil || tv.Value.Kind() != constant.Int {
			return nil
		}
		v, ok := constant.Int64Val(tv.Value)
		if !ok {
			return nil
		}
		return &v
	}
	for i, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			// Positional literal: DataBits is the second field of
			// stbus.PortConfig{Type, DataBits, AddrBits, Endian}.
			if i == 1 {
				return constWidth(elt), true
			}
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "DataBits" {
			return constWidth(kv.Value), true
		}
	}
	return nil, false
}

// SignalRead flags sim.Signal value reads (Get / U64 / Bool) performed at
// elaboration time: directly in the body of a function that registers
// simulation processes (Seq / CombOut / AtCycleEnd), before the
// simulator has run. A signal has no settled value until Run/Step executes
// the processes, so an elaboration-time read always sees the zero value —
// the read belongs inside the process callback. Reads that occur lexically after a
// Run/RunUntil/Step call in the same function are result inspection and are
// fine; so are reads in helper functions that register nothing (they execute
// inside somebody else's callback).
var SignalRead = &Analyzer{
	Name: "signalread",
	Doc: "flag sim.Signal reads outside a process callback: a function that registers " +
		"Seq/CombOut/AtCycleEnd processes must not read signal values before the simulator " +
		"runs — the value is not settled until the callbacks execute",
	Run: runSignalRead,
}

func runSignalRead(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkElaborationScope(pass, n.Body)
				}
			case *ast.FuncLit:
				checkElaborationScope(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkElaborationScope examines one function body at nesting depth zero:
// nested function literals are process callbacks (or at least deferred
// execution) and are skipped here — each gets its own scope check from the
// outer walk.
func checkElaborationScope(pass *Pass, body *ast.BlockStmt) {
	type read struct {
		pos    token.Pos
		method string
	}
	var reads []read
	registers := token.NoPos // first Seq/CombOut/AtCycleEnd registration
	firstRun := token.NoPos  // first Run/RunUntil/Step, if any
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := pass.TypesInfo.Types[sel.X].Type
		if recv == nil {
			return true
		}
		if p, ok := types.Unalias(recv).(*types.Pointer); ok {
			recv = p.Elem()
		}
		switch sel.Sel.Name {
		case "Seq", "CombOut", "AtCycleEnd":
			if isNamed(recv, simPath, "Scope") || isNamed(recv, simPath, "Simulator") {
				if !registers.IsValid() {
					registers = call.Pos()
				}
			}
		case "Run", "RunUntil", "Step":
			if isNamed(recv, simPath, "Simulator") && !firstRun.IsValid() {
				firstRun = call.Pos()
			}
		case "Get", "U64", "Bool":
			// Scope.Bool / Simulator.Bool construct a signal; only the
			// Signal receiver is a value read.
			if isNamed(recv, simPath, "Signal") {
				reads = append(reads, read{call.Pos(), sel.Sel.Name})
			}
		}
		return true
	})
	if !registers.IsValid() {
		return
	}
	for _, r := range reads {
		if firstRun.IsValid() && r.pos > firstRun {
			continue // inspecting results after the simulator ran
		}
		pass.Reportf(r.pos,
			"sim.Signal.%s read at elaboration time: this function registers processes, and the signal has no settled value until the simulator runs — move the read into the process callback",
			r.method)
	}
}

// exprString renders a call target for a diagnostic message.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "call"
	}
	return buf.String()
}
