package fleet

import (
	"math"
	"runtime"
	"testing"
)

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		ms   float64
		want int
	}{
		{0, 0},
		{-5, 0},
		{math.NaN(), 0},
		{latHistMinMS, 0},        // exactly the floor clamps low
		{latHistMinMS * 1.01, 0}, /* inside the first bucket */
		{1, 300},                 // three decades above the 1 µs floor
		{1000, 600},              // six decades
		{math.Inf(1), latHistBuckets - 1},
		{1e12, latHistBuckets - 1}, // beyond the top decade clamps high
	}
	for _, c := range cases {
		if got := bucketOf(c.ms); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
	// Bucket index is monotone in the sample value.
	prev := -1
	for ms := latHistMinMS; ms < 1e6; ms *= 1.07 {
		b := bucketOf(ms)
		if b < prev {
			t.Fatalf("bucketOf not monotone: bucketOf(%g) = %d after %d", ms, b, prev)
		}
		prev = b
	}
}

func TestLatHistPercentiles(t *testing.T) {
	var h latHist
	if p := h.percentile(0.99); p != 0 {
		t.Fatalf("empty percentile = %g, want 0", p)
	}
	// 100 samples at 10 ms, 1 outlier at 1000 ms: p50 sits in the 10 ms
	// bucket, p99 still inside the bulk, and every percentile returns its
	// bucket's lower edge.
	for i := 0; i < 100; i++ {
		h.observe(10)
	}
	h.observe(1000)
	p50 := h.percentile(0.50)
	if math.Abs(p50-10)/10 > 0.03 {
		t.Errorf("p50 = %g, want ~10 (within bucket resolution)", p50)
	}
	if p99 := h.percentile(0.99); p99 >= 100 {
		t.Errorf("p99 = %g, should stay in the 10 ms bulk", p99)
	}
	if p := h.percentile(1.0); math.Abs(p-1000)/1000 > 0.03 {
		t.Errorf("p100 = %g, want ~1000", p)
	}
}

// TestSoakMillionRequestFlatMemory drives ≥1,000,000 requests through one
// grid row and asserts the driver's footprint stays flat: PeakPending is
// bounded by queue capacity (not trace length) and the heap does not grow
// with the request count.
func TestSoakMillionRequestFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-request soak skipped in short mode")
	}
	spec := SoakSpec{
		RequestsPerModel: 333334, // 3 models → 1,000,002 requests
		ReplicaCounts:    []int{1},
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	rep, err := RunSoak(spec)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)

	if len(rep.Rows) != 2 {
		t.Fatalf("want 2 rows (hedge off/on), got %d", len(rep.Rows))
	}
	if err := rep.Check(); err != nil {
		t.Error(err)
	}
	for _, row := range rep.Rows {
		if row.Requests < 1_000_000 {
			t.Errorf("hedge=%v: %d requests, want ≥ 1,000,000", row.Hedge, row.Requests)
		}
		// The driver resolves requests as their batches flush; pending
		// never scales with the trace. Queue cap (512) × a handful of
		// servers bounds it — 20k is an order of magnitude of slack.
		if row.PeakPending <= 0 || row.PeakPending > 20_000 {
			t.Errorf("hedge=%v: peak pending %d, want bounded by queue caps", row.Hedge, row.PeakPending)
		}
	}

	// Flat memory: a million resolved requests must not be retained. Allow
	// generous fixed overhead (executors, histograms, runtime noise) but
	// nothing close to per-request retention (~100 B × 1M = 100 MB would
	// blow straight past this).
	const limit = 64 << 20
	if after.HeapAlloc > before.HeapAlloc+limit {
		t.Errorf("heap grew %d → %d bytes across the soak; retained per-request state?",
			before.HeapAlloc, after.HeapAlloc)
	}
}
