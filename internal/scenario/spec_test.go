package scenario

import (
	"strings"
	"testing"

	"pcnn/internal/fault"
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

// TestPercentile: a row's pooled p50/p99 are nearest-rank, ceil(p·n)−1.
// At n = 60, p99 is the maximum, where the round(p·n)−1 rank the matrix
// used before read the sample below it.
func TestPercentile(t *testing.T) {
	var empty Row
	empty.aggregate(nil)
	if empty.P50MS != 0 || empty.P99MS != 0 {
		t.Errorf("empty row percentiles = %v / %v, want 0", empty.P50MS, empty.P99MS)
	}
	lats := make([]float64, 60)
	for i := range lats {
		lats[i] = float64(60 - i) // descending: aggregate sorts
	}
	var r Row
	r.aggregate(lats)
	if r.P50MS != 30 || r.P99MS != 60 {
		t.Errorf("p50/p99 of 1..60 = %v / %v, want 30 / 60", r.P50MS, r.P99MS)
	}
}
