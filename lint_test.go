package pcnn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllow lists exported names the lint below accepts without a
// non-test reference, each with the reason it stays. Bare names are
// methods the runtime or the standard library calls through an interface;
// "dir.Name" entries are single declarations.
var testOnlyAllow = map[string]string{
	"String":        "fmt.Stringer, called by fmt verbs",
	"Error":         "error interface",
	"Unwrap":        "errors.Is / errors.As",
	"ServeHTTP":     "http.Handler",
	"MarshalJSON":   "encoding/json",
	"UnmarshalJSON": "encoding/json",
	"Len":           "sort.Interface",
	"Less":          "sort.Interface",
	"Swap":          "sort.Interface",

	// Public API kept on purpose: no cmd/, example or bench calls them, a
	// library user would.
	"pcnn.go.InferTask": "facade for the paper's task inference (Section II.B)",

	// Shared test support: constructors and comparisons other packages'
	// tests import, and the real-daemon harness whose consumers are
	// _test files.
	"internal/fault.MustNew":               "fault.New for known-good specs in serve/scenario/fleet tests",
	"internal/tensor.AllClose":             "tolerance comparison used by nn and serve tests",
	"internal/tensor.SetParallelThreshold": "tensor and nn tests set 0 so small shapes shard",
	"internal/tensor.SetSIMD":              "nn and perforate tests run their layers on the portable kernels too",
	"internal/fleet/e2e.NewHarness":        "e2e test harness",
	"internal/fleet/e2e.NewRouterRegistry": "e2e test harness",
	"internal/fleet/e2e.StartDaemon":       "e2e test harness",
	"internal/fleet/e2e.Running":           "e2e test harness",
	"internal/fleet/e2e.Restart":           "e2e test harness",
}

// TestNoTestOnlyExports keeps the exported surface honest: every exported
// top-level func or method declared in a non-test file under internal/
// must be named in some non-test file (internal/, cmd/, examples/, bench/
// or pcnn.go) other than at its own declaration, and every exported func
// of the pcnn.go facade in some file under cmd/, examples/ or bench/. The
// match is by bare name, so a method sharing its name with anything
// referenced passes — the lint can only under-report.
//
// Exported fields get the write-only rule: a field of an exported struct
// under internal/ that carries no struct tag (tagged fields are read by
// encoding/json) must appear as a selector x.Field somewhere — test files
// count — other than as the target of an assignment. Assigned in literals
// and never read, it is a value computed for nobody.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		dir, name string
		pos       token.Position
	}
	var (
		fset       = token.NewFileSet()
		internal   []decl
		facade     []decl
		fields     []decl
		refs       = map[string]bool{} // bare names some non-test file mentions
		clientRefs = map[string]bool{} // … some file outside internal/ and pcnn.go
		fieldReads = map[string]bool{} // names selected (x.Name) other than to assign them
	)
	var files []string // test files too: they count as field readers
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files = append(files, "pcnn.go")
	rootTests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, rootTests...)
	// noteFieldReads records every selector in f that is not the direct
	// target of an assignment.
	noteFieldReads := func(f *ast.File) {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					fieldReads[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		noteFieldReads(f)
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && strings.HasPrefix(dir, "internal/") {
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							if fl.Tag == nil && name.IsExported() {
								fields = append(fields, decl{dir, ts.Name.Name + "." + name.Name, fset.Position(name.Pos())})
							}
						}
					}
				}
			}
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declared[fn.Name] = true
			switch {
			case path == "pcnn.go" && fn.Recv == nil:
				facade = append(facade, decl{"pcnn.go", fn.Name.Name, fset.Position(fn.Pos())})
			case strings.HasPrefix(dir, "internal/"):
				internal = append(internal, decl{dir, fn.Name.Name, fset.Position(fn.Pos())})
			}
		}
		client := path != "pcnn.go" && !strings.HasPrefix(dir, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
				if client {
					clientRefs[id.Name] = true
				}
			}
			return true
		})
	}
	if len(internal) < 500 || len(facade) < 20 || len(fields) < 300 {
		t.Fatalf("only %d internal, %d facade and %d field declarations found; run from the repository root", len(internal), len(facade), len(fields))
	}

	used := map[string]bool{} // allowlist entries that excused something
	var bad []string
	check := func(d decl, referenced bool, want string) {
		if referenced {
			return
		}
		for _, key := range []string{d.name, d.dir + "." + d.name} {
			if _, ok := testOnlyAllow[key]; ok {
				used[key] = true
				return
			}
		}
		bad = append(bad, d.pos.String()+": "+d.name+" "+want)
	}
	for _, d := range internal {
		check(d, refs[d.name], "is named by no non-test file; delete it or unexport it")
	}
	for _, d := range facade {
		check(d, clientRefs[d.name], "is used by nothing under cmd/, examples/ or bench/")
	}
	for _, d := range fields {
		field := d.name[strings.IndexByte(d.name, '.')+1:]
		check(d, fieldReads[field], "is assigned but never read; delete the field or use it")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	for key := range testOnlyAllow {
		if strings.Contains(key, ".") && !used[key] {
			t.Errorf("allowlist entry %q excuses nothing; remove it", key)
		}
	}
}

// TestSinglePricingPath keeps one implementation of "price a compiled
// plan at a tuning level": outside internal/compile, only the serving
// executor builds perforated launches, and the scheduler suite compiles
// its shared plan exactly once. Test files are exempt; the simulator's
// goldens drive the launches directly.
func TestSinglePricingPath(t *testing.T) {
	fset := token.NewFileSet()
	var perforated []string
	schedCompiles := 0
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			path = filepath.ToSlash(path)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "PerforatedLaunches" && !strings.HasPrefix(path, "internal/compile/") && path != "internal/serve/executor.go" {
					perforated = append(perforated, fset.Position(call.Pos()).String())
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "compile" && sel.Sel.Name == "Compile" && strings.HasPrefix(path, "internal/sched/") {
					schedCompiles++
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, pos := range perforated {
		t.Errorf("%s: PerforatedLaunches outside internal/compile and serve.PlanExecutor; price through the executor", pos)
	}
	if schedCompiles != 1 {
		t.Errorf("internal/sched calls compile.Compile %d times, want 1 (one shared plan per scenario)", schedCompiles)
	}
}
