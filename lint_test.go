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
	"internal/fleet/e2e.NewHarness":        "e2e test harness",
	"internal/fleet/e2e.NewRouterRegistry": "e2e test harness",
	"internal/fleet/e2e.StartDaemon":       "e2e test harness",
	"internal/fleet/e2e.Running":           "e2e test harness",
	"internal/fleet/e2e.Restart":           "e2e test harness",

	// Deferred deletions: test-only today, each pinned by tests the
	// tier-1 floor names; ROADMAP item 6 carries them.
	"internal/runtimemgr.NoteFault": "fault-streak backtrack, 5 floor tests (TestFaultBacktrack/*)",
	"internal/runtimemgr.LoadTable": "with Table.Save (hidden behind Plan.Save's name): floor tests TestTableSaveLoadRoundTrip, TestLoadTableRejectsGarbage",
	"internal/report.Bar":           "floor test TestBar",
}

// TestNoTestOnlyExports keeps the exported surface honest: every exported
// top-level func or method declared in a non-test file under internal/
// must be named in some non-test file (internal/, cmd/, examples/, bench/
// or pcnn.go) other than at its own declaration, and every exported func
// of the pcnn.go facade in some file under cmd/, examples/ or bench/. The
// match is by bare name, so a method sharing its name with anything
// referenced passes — the lint can only under-report.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		dir, name string
		pos       token.Position
	}
	var (
		fset       = token.NewFileSet()
		internal   []decl
		facade     []decl
		refs       = map[string]bool{} // bare names some non-test file mentions
		clientRefs = map[string]bool{} // … some file outside internal/ and pcnn.go
	)
	var files []string
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	files = append(files, "pcnn.go")
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
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
	if len(internal) < 500 || len(facade) < 20 {
		t.Fatalf("only %d internal and %d facade declarations found; run from the repository root", len(internal), len(facade))
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
