package serve

import (
	"fmt"
	"strings"
	"testing"

	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

// serveBurst runs n background requests through a fresh server and
// returns it, closed, for inspection.
func serveBurst(t *testing.T, n int) *Server {
	t.Helper()
	ex := &fakeExec{maxBatch: 8, msPerImage: []float64{1, 0.5}, entropies: []float64{0.1, 0.2}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	waitAll(t, futs)
	closeServer(t, s)
	return s
}

// TestMetricsExposition: the server's registry renders every serving
// metric the acceptance criteria name, in Prometheus text format, with
// values consistent with the snapshot.
func TestMetricsExposition(t *testing.T) {
	s := serveBurst(t, 32)

	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE pcnn_serve_queue_depth gauge",
		"pcnn_serve_queue_depth 0",
		"# TYPE pcnn_serve_requests_total counter",
		`pcnn_serve_requests_total{outcome="submitted"} 32`,
		`pcnn_serve_requests_total{outcome="completed"} 32`,
		`pcnn_serve_requests_total{outcome="rejected"} 0`,
		"# TYPE pcnn_serve_response_ms histogram",
		`pcnn_serve_response_ms_bucket{level="0",le="+Inf"}`,
		`pcnn_serve_response_ms_count{level="0"}`,
		`pcnn_serve_batch_size_bucket{level="0",le="8"}`,
		"# TYPE pcnn_serve_stage_ms histogram",
		`pcnn_serve_stage_ms_count{stage="execute"}`,
		"pcnn_serve_escalations_total",
		"pcnn_serve_calibrations_total",
		"pcnn_serve_recoveries_total",
		"pcnn_serve_batch_demotions_total 0",
		"pcnn_serve_deadline_miss_total 0",
		"pcnn_serve_throughput_rps",
		"pcnn_serve_lifetime_rps",
		"pcnn_serve_level",
		"# TYPE pcnn_gemm_backend_active gauge",
		gemmBackendLine(tensor.Blocked),
		gemmBackendLine(tensor.Serial),
		"pcnn_gemm_workers",
		"pcnn_gemm_tile_mc",
		"pcnn_gemm_tile_kc",
		"pcnn_gemm_tile_mr",
		"pcnn_gemm_tile_nr",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The gauge names resolved kernels only: never the "auto" alias, nor
	// the retired row-sharded backend.
	for _, gone := range []string{`backend="auto"`, `backend="parallel"`} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}

	// Per-level response histograms observed exactly the completed count.
	total := 0
	for _, h := range s.met.response {
		total += int(h.Count())
	}
	if total != 32 {
		t.Errorf("response histogram observations = %d, want 32", total)
	}
}

// gemmBackendLine is the exposition line for one resolved backend: 1 for
// the kernels the default engine runs, 0 for the other.
func gemmBackendLine(bk tensor.Backend) string {
	v := 0
	if tensor.Default().Backend().Resolved() == bk {
		v = 1
	}
	return fmt.Sprintf("pcnn_gemm_backend_active{backend=%q} %d", bk.String(), v)
}

// TestTraceLifecycle: every served request leaves a finished trace in the
// ring with the five lifecycle stages in pipeline order.
func TestTraceLifecycle(t *testing.T) {
	s := serveBurst(t, 8)

	traces := s.Traces(0)
	if len(traces) != 8 {
		t.Fatalf("ring holds %d traces, want 8", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Stages) != len(traceStages) {
			t.Fatalf("trace %d has %d stages (%v), want %d", tr.ID, len(tr.Stages), tr.Stages, len(traceStages))
		}
		for i, st := range tr.Stages {
			if st.Name != traceStages[i] {
				t.Errorf("trace %d stage %d = %q, want %q", tr.ID, i, st.Name, traceStages[i])
			}
			if st.DurMS < 0 || st.AtMS < 0 {
				t.Errorf("trace %d stage %q has negative timing: %+v", tr.ID, st.Name, st)
			}
		}
		if tr.Batch < 1 || tr.Batch > 8 {
			t.Errorf("trace %d batch = %d, want within [1,8]", tr.ID, tr.Batch)
		}
		if tr.TotalMS() < 0 {
			t.Errorf("trace %d total %v < 0", tr.ID, tr.TotalMS())
		}
	}
	// Stage histograms saw one observation per request per stage.
	for _, name := range traceStages {
		if got := s.met.stages[name].Count(); got != 8 {
			t.Errorf("stage %q histogram count = %d, want 8", name, got)
		}
	}
	// Truncation: Traces(3) returns the 3 newest.
	if got := s.Traces(3); len(got) != 3 {
		t.Errorf("Traces(3) = %d traces", len(got))
	}
}

// TestLayerProfileUnsupported: executors without profiling (test fakes)
// yield a clean error, not a panic.
func TestLayerProfileUnsupported(t *testing.T) {
	ex := &fakeExec{maxBatch: 2, msPerImage: []float64{1}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	if _, err := s.LayerProfile(); err == nil {
		t.Fatal("LayerProfile on a non-profiling executor must error")
	}
}
