package experiments_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcnn/internal/experiments"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/eval_synthetic.golden from the current scheduler suite")

// TestEvalMatrixSyntheticGolden pins the pricing behind Figs 13–15 without
// training: the scheduler suite on every (device, task) pair, over the
// synthetic AlexNet path the serving executor builds for age detection,
// with every Outcome field printed.
func TestEvalMatrixSyntheticGolden(t *testing.T) {
	m, err := experiments.RunEvalMatrix(serve.SyntheticPath(nn.AlexNetShape(), satisfaction.AgeDetection(), 6))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, dev := range m.Devices {
		for _, task := range m.Tasks {
			for _, name := range []string{"Perf", "Energy", "QPE", "QPE+", "P-CNN", "Ideal"} {
				o, ok := m.Outcomes[dev][task][name]
				if !ok {
					t.Fatalf("%s/%s: no %s outcome", dev, task, name)
				}
				fmt.Fprintf(&b, "%s/%s %+v\n", dev, task, o)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "eval_synthetic.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("scheduler outcomes differ from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
