package sched

import (
	"errors"
	"math"
	"testing"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// TestCollectionDelay covers the batching-delay model across the three
// task archetypes (satellite: deadline-math coverage).
func TestCollectionDelay(t *testing.T) {
	cases := []struct {
		name  string
		task  satisfaction.Task
		batch int
		want  float64
	}{
		{"interactive batch1", satisfaction.AgeDetection(), 1, 0},
		{"interactive batch4 at 1Hz", satisfaction.AgeDetection(), 4, 3000},
		{"surveillance 60fps batch1", satisfaction.VideoSurveillance(60), 1, 0},
		{"surveillance 60fps batch2", satisfaction.VideoSurveillance(60), 2, 1000.0 / 60},
		{"surveillance 30fps batch4", satisfaction.VideoSurveillance(30), 4, 100},
		{"background any batch", satisfaction.ImageTagging(), 256, 0},
		{"zero batch clamps", satisfaction.AgeDetection(), 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := CollectionDelayMS(c.task, c.batch)
			if math.Abs(got-c.want) > 1e-9 {
				t.Errorf("CollectionDelayMS(%s, %d) = %v, want %v", c.task.Name, c.batch, got, c.want)
			}
		})
	}
}

// tinyMemDevice returns an otherwise-valid device whose usable memory
// cannot hold even a single-image inference footprint.
func tinyMemDevice() *gpu.Device {
	d := *gpu.K20c()
	d.Name = "TinyMem"
	d.GlobalMemBytes = 1 << 20 // 1 MiB
	d.UsableMemFrac = 0.5
	return &d
}

func TestFitBatchSentinel(t *testing.T) {
	net := nn.VGGNetShape()

	if _, err := fitBatch(net, gpu.K20c(), trainingBatch); err != nil {
		t.Fatalf("fitBatch on K20c: unexpected error %v", err)
	}

	_, err := fitBatch(net, tinyMemDevice(), trainingBatch)
	if !errors.Is(err, ErrNoFitBatch) {
		t.Fatalf("fitBatch on tiny device: error = %v, want ErrNoFitBatch", err)
	}
}

// TestRunSurfacesNoFitBatch is the regression test for the silent-fallback
// bug: Evaluate must propagate the sentinel rather than running the
// Energy-efficient scheduler at batch 1 on a device that cannot hold the
// network.
func TestRunSurfacesNoFitBatch(t *testing.T) {
	sc := Scenario{
		Net:  nn.VGGNetShape(),
		Dev:  tinyMemDevice(),
		Task: satisfaction.ImageTagging(),
	}
	_, err := Evaluate(sc)
	if !errors.Is(err, ErrNoFitBatch) {
		t.Fatalf("Evaluate error = %v, want ErrNoFitBatch", err)
	}
}
