package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// nearestRank is the exact-sample reference LatencyHist is checked
// against: the p-th percentile of n ascending samples is the sample at
// 0-based index ceil(p·n)−1, clamped into the slice (0 when it is empty).
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// TestPercentileNearestRank pins the reference's rank: index ceil(p·n)−1,
// clamped.
func TestPercentileNearestRank(t *testing.T) {
	if p := nearestRank(nil, 0.5); p != 0 {
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
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("nearestRank(1..4, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		ms   float64
		want int
	}{
		{0, 0},
		{-5, 0},
		{math.NaN(), 0},
		{latMinMS, 0},        // exactly the floor clamps low
		{latMinMS * 1.01, 0}, /* inside the first bucket */
		{1, 300},             // three decades above the 1 µs floor
		{1000, 600},          // six decades
		{math.Inf(1), latBuckets - 1},
		{1e12, latBuckets - 1}, // beyond the top decade clamps high
	}
	for _, c := range cases {
		if got := bucketOf(c.ms); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
	// Bucket index is monotone in the sample value.
	prev := -1
	for ms := latMinMS; ms < 1e6; ms *= 1.07 {
		b := bucketOf(ms)
		if b < prev {
			t.Fatalf("bucketOf not monotone: bucketOf(%g) = %d after %d", ms, b, prev)
		}
		prev = b
	}
}

func TestLatencyHistPercentiles(t *testing.T) {
	var h LatencyHist
	if p := h.Percentile(0.99); p != 0 {
		t.Fatalf("empty percentile = %g, want 0", p)
	}
	// 100 samples at 10 ms, 1 outlier at 1000 ms: p50 sits in the 10 ms
	// bucket, p99 still inside the bulk, and every percentile returns its
	// bucket's lower edge.
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	h.Observe(1000)
	p50 := h.Percentile(0.50)
	if math.Abs(p50-10)/10 > 0.03 {
		t.Errorf("p50 = %g, want ~10 (within bucket resolution)", p50)
	}
	if p99 := h.Percentile(0.99); p99 >= 100 {
		t.Errorf("p99 = %g, should stay in the 10 ms bulk", p99)
	}
	if p := h.Percentile(1.0); math.Abs(p-1000)/1000 > 0.03 {
		t.Errorf("p100 = %g, want ~1000", p)
	}
}

// TestLatencyHistNearestRank: on random samples — duplicates, sub-floor
// values and +Inf among them — Percentile(p) is the lower edge of the
// bucket holding the sorted-slice nearest-rank sample, and merging two
// histograms equals observing the union of their samples.
func TestLatencyHistNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := []float64{0, 0.001, 0.25, 0.3, 0.5, 0.51, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		samples := make([]float64, n)
		var h, a, b LatencyHist
		for i := range samples {
			var v float64
			switch r := rng.Float64(); {
			case r < 0.15 && i > 0:
				v = samples[rng.Intn(i)] // duplicate
			case r < 0.2:
				v = []float64{0, -1, latMinMS, latMinMS / 7}[rng.Intn(4)] // sub-floor
			case r < 0.22:
				v = math.Inf(1)
			default:
				v = math.Pow(10, -4+12*rng.Float64()) // 0.1 µs to 10⁸ ms
			}
			samples[i] = v
			h.Observe(v)
			if rng.Intn(2) == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
		}
		sort.Float64s(samples)
		for _, p := range append(ps, rng.Float64()) {
			want := lowerEdge(bucketOf(nearestRank(samples, p)))
			if got := h.Percentile(p); got != want {
				t.Fatalf("trial %d, n=%d: Percentile(%v) = %v, want %v (sample %v)",
					trial, n, p, got, want, nearestRank(samples, p))
			}
		}
		a.Merge(&b)
		if a != h {
			t.Fatalf("trial %d: merged halves differ from the histogram of the union", trial)
		}
	}
}
