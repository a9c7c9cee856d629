package crve_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// exemptMethods satisfy a standard-library interface, so the package that
// calls them (fmt, encoding/json, net/http, flag) never names them.
var exemptMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true,
	"ServeHTTP": true, "Set": true, "IsBoolFlag": true,
}

// exemptDecls are kept without a production caller on purpose: the polling
// VCD writer is the reference that Recording.VCD() is tested against.
var exemptDecls = map[string]bool{"vcd.Writer": true, "vcd.NewWriter": true}

// TestExportedAPIHasNonTestCaller keeps test-only API from coming back: every
// exported function under internal/, and every exported method of an
// exported type there, must be named by some non-test Go file of the
// repository (cmd/, examples/ and perfledger/ included) or by a dashboard
// template. The scan goes by name, not by type, so it under-reports; a name
// it flags has no caller at all outside tests.
func TestExportedAPIHasNonTestCaller(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	decls := map[string]string{} // "pkg.Recv.Name" or "pkg.Name" -> Name
	tmplIdent := regexp.MustCompile(`\.([A-Z][A-Za-z0-9_]*)`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".html") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range tmplIdent.FindAllStringSubmatch(string(src), -1) {
				used[m[1]] = true
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) || exemptMethods[fn.Name.Name] || exemptDecls[f.Name.Name+"."+recv] {
					continue
				}
				key = f.Name.Name + "." + recv + "." + fn.Name.Name
			}
			if !exemptDecls[key] {
				decls[key] = fn.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declaration found under internal/")
	}
	var unused []string
	for key, name := range decls {
		if !used[name] {
			unused = append(unused, key)
		}
	}
	slices.Sort(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported declarations under internal/ are named by no non-test Go file or template; delete them or call them:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
