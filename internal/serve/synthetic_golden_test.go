package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/synthetic_path.golden.json from the current SyntheticPath")

// TestSyntheticPathGolden pins the synthetic ladder of every network ×
// evaluation task to the table captured before the kept fraction stopped
// being read off a materialised mask: same layers, same quantised keep
// fractions, same entropies, to the last bit (JSON round-trips float64
// exactly).
func TestSyntheticPathGolden(t *testing.T) {
	got := map[string][]sched.TuningPoint{}
	for _, net := range nn.AllNetShapes() {
		for _, task := range satisfaction.EvaluationTasks() {
			got[net.Name+"/"+task.Name] = SyntheticPath(net, task, DefaultSyntheticLevels)
		}
	}
	path := filepath.Join("testdata", "synthetic_path.golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]sched.TuningPoint
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 9 {
		t.Fatalf("golden holds %d paths, want 9", len(want))
	}
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: SyntheticPath differs from the captured table\n got %v\nwant %v", name, got[name], w)
		}
	}
}
