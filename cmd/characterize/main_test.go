package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite docs/characterize.txt from the current run")

// TestCharacterizeGolden pins Section III's reproduced output — Tables
// II–VI and Figs 4–9, as the command prints them — to the committed
// docs/characterize.txt byte for byte, so any change to a printed number
// fails here: the analytic models, the library tile policies and the table
// assembly between the simulator and the page.
func TestCharacterizeGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "docs", "characterize.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs from the command's output at line %d (regenerate with -update only for a deliberate change)\n got %q\nwant %q", path, i+1, gl, wl)
		}
	}
}
