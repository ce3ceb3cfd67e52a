package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestHistogramBucketing pins the le semantics: a value lands in the
// first bucket whose upper bound is ≥ it, and exported counts are
// cumulative.
func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_ms", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	var exported strings.Builder
	if err := r.WritePrometheus(&exported); err != nil {
		t.Fatal(err)
	}
	// ≤1: {0.5,1}; ≤2: +{1.5,2}; ≤5: +{3}; +Inf: +{10}
	for _, want := range []string{
		`h_ms_bucket{le="1"} 2`, `h_ms_bucket{le="2"} 4`, `h_ms_bucket{le="5"} 5`, `h_ms_bucket{le="+Inf"} 6`,
	} {
		if !strings.Contains(exported.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, exported.String())
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); got != 18 {
		t.Errorf("sum = %v, want 18", got)
	}
}

// TestDuplicateRegistration: the same (name, labels) returns the same
// metric instance; a different label set makes a new series.
func TestDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x", Label{"k", "1"})
	b := r.Counter("dup_total", "x", Label{"k", "1"})
	c := r.Counter("dup_total", "x", Label{"k", "2"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if a == c {
		t.Fatal("distinct labels shared a counter")
	}
}

// TestExpositionGolden pins the Prometheus text format byte for byte.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("pcnn_requests_total", "Requests by outcome.", Label{"outcome", "ok"}).Add(3)
	r.Counter("pcnn_requests_total", "Requests by outcome.", Label{"outcome", "rejected"}).Add(1)
	r.Gauge("pcnn_queue_depth", "Queued requests.").Set(7)
	r.GaugeFunc("pcnn_throughput_rps", "Windowed rate.", func() float64 { return 12.5 })
	h := r.Histogram("pcnn_latency_ms", "Response latency.", []float64{1, 5, 25}, Label{"level", "0"})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pcnn_latency_ms Response latency.
# TYPE pcnn_latency_ms histogram
pcnn_latency_ms_bucket{level="0",le="1"} 1
pcnn_latency_ms_bucket{level="0",le="5"} 2
pcnn_latency_ms_bucket{level="0",le="25"} 2
pcnn_latency_ms_bucket{level="0",le="+Inf"} 3
pcnn_latency_ms_sum{level="0"} 103.5
pcnn_latency_ms_count{level="0"} 3
# HELP pcnn_queue_depth Queued requests.
# TYPE pcnn_queue_depth gauge
pcnn_queue_depth 7
# HELP pcnn_requests_total Requests by outcome.
# TYPE pcnn_requests_total counter
pcnn_requests_total{outcome="ok"} 3
pcnn_requests_total{outcome="rejected"} 1
# HELP pcnn_throughput_rps Windowed rate.
# TYPE pcnn_throughput_rps gauge
pcnn_throughput_rps 12.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrency hammers registration, updates and export from
// many goroutines; run under -race it is the registry's thread-safety
// proof, and the final counts must still be exact.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "shared")
			h := r.Histogram("conc_ms", "shared", []float64{1, 10, 100})
			ga := r.Gauge("conc_gauge", "shared")
			for i := 0; i < perG; i++ {
				c.Add(1)
				h.Observe(float64(i % 200))
				ga.Add(1)
				if i%100 == 0 {
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("conc_ms", "shared", []float64{1, 10, 100}).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("conc_gauge", "shared").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", got, goroutines*perG)
	}
}

// TestNilRegistry: a nil registry hands out working (unexported) metrics
// and exports nothing, so instrumentation never needs nil checks.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	c.Add(1)
	if c.Value() != 1 {
		t.Fatal("nil-registry counter unusable")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exported %q, err %v", buf.String(), err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Label{"path", `a"b\c` + "\n"}).Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c\n"`) {
		t.Errorf("escaping wrong: %q", buf.String())
	}
}
