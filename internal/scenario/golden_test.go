package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/fault"
	"pcnn/internal/serve"
	"pcnn/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite the golden scenario exposition file")

// goldenExec is a fixed-cost executor: every quantity in the golden files
// derives from these constants plus serve's virtual-clock arithmetic, so
// the goldens pin the exposition format without depending on the GPU
// simulator's floating-point behaviour.
type goldenExec struct{}

func (goldenExec) MaxBatch() int         { return 4 }
func (goldenExec) Levels() int           { return 4 }
func (goldenExec) Entropy(l int) float64 { return 0.3 + 0.2*float64(l) }
func (goldenExec) PredictMS(l, n int) float64 {
	return float64(n) * (8 - float64(l))
}
func (goldenExec) Execute(l, n int, _ *tensor.Tensor) (serve.BatchResult, error) {
	return serve.BatchResult{
		TimeMS:  float64(n) * (8 - float64(l)),
		EnergyJ: 0.02 * float64(n),
		Entropy: 0.3 + 0.2*float64(l),
	}, nil
}

// goldenSpec fixes every rate explicitly so the engine needs no
// compilation at all: the golden output exercises spec → row → JSON,
// nothing simulator-side.
func goldenSpec() Spec {
	return Spec{
		Name:     "golden-mixed",
		Platform: "TX1",
		Net:      "AlexNet",
		Streams: []StreamSpec{
			{Task: "age", Arrival: ArrivalPoisson, RateRPS: 80, Requests: 24},
			{Task: "surveillance", FPS: 30, Arrival: ArrivalPeriodic, RateRPS: 30, Requests: 24},
			{Task: "tagging", Arrival: ArrivalMMPP, RateRPS: 200, Requests: 24},
		},
		Chaos: fault.Spec{Seed: 42, Launch: 0.05, Slow: 0.1, SlowFactor: 3, Corrupt: 0.1, Saturate: 0.05, SkewMS: 1},
		Seed:  42,
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
		t.Errorf("%s drifted from the golden exposition.\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenMatrixExposition pins the scenario matrix's export format —
// the BENCH_scenarios.json row schema — byte for byte against a committed
// golden.
func TestGoldenMatrixExposition(t *testing.T) {
	e := Engine{
		ExecutorFor: func(sp Spec, st StreamSpec, plan *compile.Plan) (serve.Executor, error) {
			if plan != nil {
				t.Errorf("engine compiled a plan for %s/%s despite explicit rates", sp.Name, st.Task)
			}
			return goldenExec{}, nil
		},
	}
	m, err := e.RunMatrix([]Spec{goldenSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := m.EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_matrix.json"), js.Bytes())
}
