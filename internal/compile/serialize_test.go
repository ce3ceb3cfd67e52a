package compile

import (
	"bytes"
	"strings"
	"testing"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	p, err := Compile(nn.AlexNetShape(), gpu.K20c(), satisfaction.AgeDetection())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyDVFS(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Net.Name != p.Net.Name || q.Dev.Name != p.Dev.Name || q.Batch != p.Batch {
		t.Fatalf("round trip changed identity: %s/%s/%d", q.Net.Name, q.Dev.Name, q.Batch)
	}
	if q.FreqFrac != p.FreqFrac || (q.EffDev == nil) != (p.EffDev == nil) {
		t.Fatalf("DVFS state lost: frac %v effDev %v", q.FreqFrac, q.EffDev)
	}
	if len(q.Layers) != len(p.Layers) {
		t.Fatalf("layers %d, want %d", len(q.Layers), len(p.Layers))
	}
	for i := range q.Layers {
		if q.Layers[i].Name != p.Layers[i].Name ||
			q.Layers[i].OptSM != p.Layers[i].OptSM ||
			q.Layers[i].OptTLP != p.Layers[i].OptTLP ||
			q.Layers[i].Choice.Kernel != p.Layers[i].Choice.Kernel {
			t.Fatalf("layer %d differs after round trip", i)
		}
	}
	// The loaded plan executes identically.
	_, a1, err := p.Simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	_, a2, err := q.Simulate(true)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("loaded plan simulates differently: %+v vs %+v", a1, a2)
	}
}

func TestLoadPlanRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":        "}{",
		"bad version":     `{"version": 99, "net": "AlexNet", "device": "K20c", "batch": 1, "layers": [{}]}`,
		"unknown net":     `{"version": 1, "net": "LeNet", "device": "K20c", "batch": 1, "layers": [{}]}`,
		"unknown device":  `{"version": 1, "net": "AlexNet", "device": "GTX480", "batch": 1, "layers": [{}]}`,
		"degenerate plan": `{"version": 1, "net": "AlexNet", "device": "K20c", "batch": 0, "layers": []}`,
	}
	for name, body := range cases {
		if _, err := LoadPlan(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
