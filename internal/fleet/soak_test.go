package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/soak_rows.golden")

// smallSoak keeps test runtime down while exercising every soak feature:
// heterogeneous replicas, all three archetypes, a mid-trace hot-swap and
// both hedging arms. It is the pcnnd -fleet-smoke grid.
func smallSoak() SoakSpec {
	return SoakSpec{Seed: 42, RequestsPerModel: 60, ReplicaCounts: []int{1, 3}}
}

func TestSoakSmoke(t *testing.T) {
	rep, err := RunSoak(smallSoak())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("want 4 grid rows, got %d", len(rep.Rows))
	}
	if err := rep.Check(); err != nil {
		t.Error(err)
	}
}

// TestSoakCheckFails: every acceptance rule Check enforces rejects a row
// that breaks it.
func TestSoakCheckFails(t *testing.T) {
	ok := func() SoakReport {
		return SoakReport{Rows: []SoakRow{
			{Replicas: 1, Requests: 3, Served: 2, Shed: 1, Submitted: 2, Completed: 2, Swaps: 1, P50MS: 40},
			{Replicas: 3, Requests: 3, Served: 3, Submitted: 3, Completed: 3, Swaps: 1, P50MS: 30},
			{Replicas: 3, Hedge: true, Requests: 3, Served: 3, Submitted: 3, Completed: 3, Swaps: 1, P50MS: 50},
		}}
	}
	if err := ok().Check(); err != nil {
		t.Fatalf("a clean report fails: %v", err)
	}
	for name, mutate := range map[string]func(r *SoakReport){
		"lost request":      func(r *SoakReport) { r.Rows[0].Shed = 0 },
		"unbalanced server": func(r *SoakReport) { r.Rows[1].Failed = 1 },
		"no swap":           func(r *SoakReport) { r.Rows[2].Swaps = 0 },
		"failed swap":       func(r *SoakReport) { r.Rows[0].SwapFailed = 1 },
		"flat latency":      func(r *SoakReport) { r.Rows[1].P50MS = 40 },
	} {
		r := ok()
		mutate(&r)
		if r.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
}

// TestSoakGolden pins the soak's rows byte for byte: the small grid (60
// requests per model, one and three replicas, hedging off and on, the
// mid-trace swap) serialized as JSON against testdata/soak_rows.golden.
// Only the rows are pinned, not the spec header. -update rewrites the file
// and is for a deliberate behaviour change only.
func TestSoakGolden(t *testing.T) {
	rep, err := RunSoak(smallSoak())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep.Rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "soak_rows.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("soak rows drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
