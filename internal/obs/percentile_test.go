package obs

import "testing"

// TestPercentileNearestRank pins the rank: index ceil(p·n)−1, clamped.
func TestPercentileNearestRank(t *testing.T) {
	if p := Percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1},    // index −1 clamps to the first sample
		{0.25, 1}, // ceil(1)−1 = 0
		{0.3, 2},  // ceil(1.2)−1 = 1; round(1.2)−1 would read index 0
		{0.5, 2},  // ceil(2)−1 = 1
		{0.51, 3}, // ceil(2.04)−1 = 2
		{0.99, 4}, // ceil(3.96)−1 = 3
		{1.5, 4},  // past the end clamps to the last sample
	} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(1..4, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}
