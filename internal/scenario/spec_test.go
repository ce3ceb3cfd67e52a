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
	sp := Spec{Streams: []StreamSpec{{Task: "surveillance"}}}.withDefaults()
	if sp.Seed != 1 {
		t.Errorf("Seed = %d, want 1", sp.Seed)
	}
	if sp.LingerMS != 20 {
		t.Errorf("LingerMS = %v, want 20", sp.LingerMS)
	}
	st := sp.Streams[0]
	if st.Requests != 96 || st.Load != 0.8 || st.FPS != 30 {
		t.Errorf("stream defaults = %+v, want requests 96, load 0.8, fps 30", st)
	}
}

// TestArrivalsForDefaulting: the empty arrival kind resolves to the
// archetype's own process, and every named kind maps to its type.
func TestArrivalsForDefaulting(t *testing.T) {
	age, _ := taskFor(StreamSpec{Task: "age"})
	cam, _ := taskFor(StreamSpec{Task: "surveillance", FPS: 30})
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
	age, _ := taskFor(StreamSpec{Task: "age"})
	cam, _ := taskFor(StreamSpec{Task: "surveillance", FPS: 24})
	ex := goldenExec{}
	if r := streamRate(StreamSpec{Task: "age", RateRPS: 123}, age, ex, 4); r != 123 {
		t.Errorf("explicit rate = %v, want 123", r)
	}
	if r := streamRate(StreamSpec{Task: "surveillance", FPS: 24}, cam, ex, 4); r != 24 {
		t.Errorf("surveillance default rate = %v, want the 24 fps camera rate", r)
	}
	// Load-derived: 0.5 × capacity, capacity = batch·1000/PredictMS(base).
	// goldenExec entropies are 0.3+0.2l; age detection's threshold admits
	// level 1, where a 4-batch predicts 4·7 = 28 ms.
	base := serve.BaseLevel(ex, age)
	want := 0.5 * 4 * 1000 / ex.PredictMS(base, 4)
	if r := streamRate(StreamSpec{Task: "age", Load: 0.5}, age, ex, 4); r != want {
		t.Errorf("load-derived rate = %v, want %v (base level %d)", r, want, base)
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
	s := []float64{4, 1, 3, 2}
	if p := percentile(s, 0.5); p != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", p)
	}
	if p := percentile(s, 0.99); p != 4 {
		t.Errorf("p99 of 1..4 = %v, want 4", p)
	}
	if s[0] != 4 {
		t.Error("percentile mutated its input")
	}
}
