package fleet

import (
	"runtime"
	"testing"
)

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
