package simdrive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// deterministicSources are the non-test sources every committed
// virtual-clock number flows through, relative to this package: the
// windows and Drive, the one event loop, then its two callers and the
// schedule it consumes.
var deterministicSources = []string{
	"*.go",
	"../scenario/*.go",
	"../fleet/soak.go",
	"../fleet/agg.go",
	"../workload/schedule.go",
	"../../cmd/pcnnd/scenarios.go",
}

// wallClockCalls are the time-package functions that read or wait on the
// wall clock. context.WithTimeout is deliberately absent: it is the hang
// bound, safety code that never shapes a result.
var wallClockCalls = map[string]bool{
	"Sleep": true, "Now": true, "After": true, "Tick": true, "NewTimer": true,
}

// TestNoWallClockInDeterministicDrivers parses the deterministic driver
// sources and fails on any use of the wall clock: a sleep or a
// time.Now there is a race inside a path advertised as bit-reproducible.
func TestNoWallClockInDeterministicDrivers(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, pattern := range deterministicSources {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("pattern %q matched nothing (err %v); the lint list is stale", pattern, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			// The name "time" is bound to in this file ("" = not imported).
			timeName := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				}
			}
			if timeName == "" {
				continue
			}
			// Any reference counts, called or not: `Clock: time.Now` is as
			// much a wall-clock read as a call.
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName && wallClockCalls[sel.Sel.Name] {
					t.Errorf("%s: time.%s in a deterministic driver source",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if checked < len(deterministicSources) {
		t.Fatalf("only %d source files checked", checked)
	}
}
