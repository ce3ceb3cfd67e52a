package gpu_test

import (
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// BenchmarkSimulateFullGrid times the largest launch a sim_regen pass
// simulates: AlexNet's CONV1 at batch 256 on TX1 as the Energy scheduler
// prices it — 72 600 CTAs through two SMs at full occupancy.
func BenchmarkSimulateFullGrid(b *testing.B) {
	dev := gpu.TX1()
	p, err := compile.CompileAtBatch(nn.AlexNetShape(), dev, satisfaction.ImageTagging(), 256)
	if err != nil {
		b.Fatal(err)
	}
	l := p.Launches(false)[0]
	b.ReportMetric(float64(l.Kernel.GridSize), "CTAs")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Simulate(l.Kernel, l.Config); err != nil {
			b.Fatal(err)
		}
	}
}
