package scenario

import (
	"math"
	"strings"
	"testing"

	"pcnn/internal/fault"
	"pcnn/internal/obs"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/workload"
)

func validSpec() Spec {
	return Spec{
		Name:     "ok",
		Platform: "TX1",
		Net:      "AlexNet",
		Streams:  []StreamSpec{{Task: "age", RateRPS: 50, Requests: 8}},
		Seed:     1,
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"valid", func(*Spec) {}, ""},
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"bad platform", func(s *Spec) { s.Platform = "H100" }, "unknown platform"},
		{"bad net", func(s *Spec) { s.Net = "ResNet" }, "unknown network"},
		{"no streams", func(s *Spec) { s.Streams = nil }, "at least one stream"},
		{"bad task", func(s *Spec) { s.Streams[0].Task = "mining" }, "unknown task"},
		{"bad arrival", func(s *Spec) { s.Streams[0].Arrival = "fractal" }, "unknown arrival"},
		{"bad chaos", func(s *Spec) { s.Chaos = fault.Spec{Launch: 1.5} }, "out of [0, 1]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := validSpec()
			c.mutate(&sp)
			err := sp.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestSpecDefaults(t *testing.T) {
	sp := Spec{Streams: []StreamSpec{{Task: "surveillance"}, {Task: "age"}}}.withDefaults()
	if sp.Seed != 1 {
		t.Errorf("Seed = %d, want 1", sp.Seed)
	}
	// A surveillance stream keeps Load 0, so it arrives at its camera FPS.
	if st := sp.Streams[0]; st.Requests != 96 || st.Load != 0 || st.FPS != 30 {
		t.Errorf("surveillance defaults = %+v, want requests 96, load 0, fps 30", st)
	}
	if st := sp.Streams[1]; st.Requests != 96 || st.Load != 0.8 {
		t.Errorf("age defaults = %+v, want requests 96, load 0.8", st)
	}
}

// TestArrivalsForDefaulting: the empty arrival kind resolves to the
// archetype's own process, and every named kind maps to its type.
func TestArrivalsForDefaulting(t *testing.T) {
	age, cam := satisfaction.AgeDetection(), satisfaction.VideoSurveillance(30)
	cases := []struct {
		name     string
		st       StreamSpec
		task     satisfaction.Task
		wantKind string
	}{
		{"age default", StreamSpec{Task: "age"}, age, ArrivalPoisson},
		{"surveillance default", StreamSpec{Task: "surveillance"}, cam, ArrivalPeriodic},
		{"explicit mmpp", StreamSpec{Task: "age", Arrival: ArrivalMMPP}, age, ArrivalMMPP},
		{"explicit diurnal", StreamSpec{Task: "age", Arrival: ArrivalDiurnal, Requests: 16}, age, ArrivalDiurnal},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			arr, kind := arrivalsFor(c.st, c.task, 50, 1)
			if kind != c.wantKind {
				t.Fatalf("kind = %q, want %q", kind, c.wantKind)
			}
			switch c.wantKind {
			case ArrivalPoisson:
				if _, ok := arr.(*workload.OpenArrivals); !ok {
					t.Fatalf("got %T", arr)
				}
			case ArrivalPeriodic:
				if _, ok := arr.(*workload.PeriodicArrivals); !ok {
					t.Fatalf("got %T", arr)
				}
			case ArrivalMMPP:
				if _, ok := arr.(*workload.MMPPArrivals); !ok {
					t.Fatalf("got %T", arr)
				}
			case ArrivalDiurnal:
				if _, ok := arr.(*workload.TraceArrivals); !ok {
					t.Fatalf("got %T", arr)
				}
			}
		})
	}
}

func TestStreamRate(t *testing.T) {
	age, cam := satisfaction.AgeDetection(), satisfaction.VideoSurveillance(24)
	ex := goldenExec{}
	if r := arrivalRate(StreamSpec{Task: "age", RateRPS: 123}, age, ex, 4); r != 123 {
		t.Errorf("explicit rate = %v, want 123", r)
	}
	if r := arrivalRate(StreamSpec{Task: "surveillance", FPS: 24}, cam, ex, 4); r != 24 {
		t.Errorf("surveillance default rate = %v, want the 24 fps camera rate", r)
	}
	// Load-derived: Load × one worker's capacity at the base level. A
	// surveillance stream with a Load takes it too.
	if r, want := arrivalRate(StreamSpec{Task: "age", Load: 0.5}, age, ex, 4),
		0.5*serve.CapacityRPS(ex, age, 4); r != want {
		t.Errorf("load-derived rate = %v, want %v", r, want)
	}
	if r, want := arrivalRate(StreamSpec{Task: "surveillance", FPS: 24, Load: 2}, cam, ex, 4),
		2*serve.CapacityRPS(ex, cam, 4); r != want {
		t.Errorf("surveillance at load 2 = %v, want %v", r, want)
	}
}

// TestPercentile: a row's p50/p99 are nearest rank, sample ceil(p·n), over
// its streams' merged latency histogram, reported as that sample's bucket
// lower edge. At n = 60, p99 is the maximum, where the round(p·n) rank the
// matrix once used read the sample below it; the samples are 5 % apart,
// so neighbours never share a ≈2.3 %-wide bucket.
func TestPercentile(t *testing.T) {
	var empty Row
	empty.aggregate(&obs.LatencyHist{})
	if empty.P50MS != 0 || empty.P99MS != 0 {
		t.Errorf("empty row percentiles = %v / %v, want 0", empty.P50MS, empty.P99MS)
	}
	sample := func(i int) float64 { return 10 * math.Pow(1.05, float64(i)) }
	edge := func(ms float64) float64 {
		var h obs.LatencyHist
		h.Observe(ms)
		return h.Percentile(1)
	}
	var odd, even obs.LatencyHist // two streams' histograms
	for i := 60; i >= 1; i-- {
		if i%2 == 1 {
			odd.Observe(sample(i))
		} else {
			even.Observe(sample(i))
		}
	}
	odd.Merge(&even)
	var r Row
	r.aggregate(&odd)
	if r.P50MS != edge(sample(30)) || r.P99MS != edge(sample(60)) {
		t.Errorf("p50/p99 = %v / %v, want samples 30 and 60's edges %v / %v",
			r.P50MS, r.P99MS, edge(sample(30)), edge(sample(60)))
	}
}
