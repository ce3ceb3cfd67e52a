// Package scenario is the heterogeneous-fleet scenario engine: it crosses
// the paper's four platforms with mixed-archetype traffic (interactive age
// detection, fixed-fps surveillance, background tagging), bursty and
// diurnal arrival processes, DVFS, spatial-multitasking co-runners, and
// seeded chaos — and drives each combination through the real
// internal/serve pipeline on a virtual clock, so every scenario's SoC,
// energy, latency percentiles and miss rate are bit-for-bit reproducible
// from the spec's seed alone.
//
// The virtual-time trick is what makes that possible: the engine owns a
// settable clock the server reads (serve.Config.Clock), composes each
// batch window through simdrive.Window (serve.Config.ManualFlush +
// Server.Flush), and advances time to each request's arrival instant
// before submitting it and to the batch's execution instant before
// flushing it. It then waits on the batch's futures and nothing else:
// serve resolves them only after the batch is accounted and the
// controller has observed it, so no step of a run polls or sleeps.
// Queueing delay, escalation slack, deadline checks and recovery all run
// through serve's own code paths — but on a clock with no jitter in it.
package scenario

import (
	"fmt"

	"pcnn/internal/fault"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/workload"
)

// Arrival kinds the stream grammar accepts. Empty defaults to the task
// archetype's own process (periodic for surveillance, Poisson otherwise).
const (
	ArrivalPoisson  = "poisson"
	ArrivalPeriodic = "periodic"
	ArrivalMMPP     = "mmpp"
	ArrivalDiurnal  = "diurnal"
)

// StreamSpec declares one traffic stream of a scenario: a task archetype,
// an arrival process, and how hard to push.
type StreamSpec struct {
	// Task is the archetype: "age" (interactive), "surveillance"
	// (real-time) or "tagging" (background).
	Task string `json:"task"`
	// FPS is the surveillance camera rate; 0 means 30.
	FPS float64 `json:"fps,omitempty"`
	// Arrival picks the arrival process: poisson, periodic, mmpp (2-state
	// bursty), or diurnal (deterministic sinusoidal trace). Empty uses the
	// archetype default.
	Arrival string `json:"arrival,omitempty"`
	// RateRPS fixes the mean arrival rate; 0 derives it as Load × one
	// worker's serving capacity (serve.CapacityRPS at the stream's batch
	// cap).
	RateRPS float64 `json:"rate_rps,omitempty"`
	// Load is the capacity fraction used when RateRPS is 0; 0 means 0.8,
	// except for surveillance, whose stream then arrives at FPS.
	Load float64 `json:"load,omitempty"`
	// Requests is how many arrivals the stream generates; 0 means 96.
	Requests int `json:"requests"`
}

// Spec declares one scenario: a platform/network deployment serving a set
// of concurrent-archetype streams under optional DVFS, co-running
// interference and fault injection. The same spec always produces the
// same Row, byte for byte.
type Spec struct {
	Name     string `json:"name"`
	Platform string `json:"platform"` // K20c, TitanX, GTX970m or TX1
	Net      string `json:"net"`      // AlexNet, VGGNet or GoogLeNet

	Streams []StreamSpec `json:"streams"`

	// DVFS applies Fig 3's imperceptible-region frequency scaling to each
	// stream's plan before serving.
	DVFS bool `json:"dvfs,omitempty"`
	// CoRun co-schedules a background GoogLeNet tagging workload on each
	// layer's freed SMs and scales execution cost by the measured
	// interference (Section III.D.2's donation alternative).
	CoRun bool `json:"corun,omitempty"`
	// Chaos is the fault-injection spec; the zero value serves clean.
	// Each stream gets its own injector seeded from Chaos.Seed (or Seed)
	// plus the stream index, so streams never share fault streams.
	Chaos fault.Spec `json:"chaos,omitempty"`

	// Seed roots every random stream the scenario draws from (arrivals,
	// retry jitter, per-stream fault injectors); 0 means 1.
	Seed int64 `json:"seed"`
}

// withDefaults fills the documented zero-value defaults.
func (s Spec) withDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	for i := range s.Streams {
		st := &s.Streams[i]
		if st.Requests <= 0 {
			st.Requests = 96
		}
		if task, _ := taskFor(*st); st.Load <= 0 && task.Class != satisfaction.RealTime {
			st.Load = 0.8
		}
		if st.FPS <= 0 {
			st.FPS = 30
		}
	}
	return s
}

// Validate rejects specs the engine cannot run.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if gpu.PlatformByName(s.Platform) == nil {
		return fmt.Errorf("scenario: %s: unknown platform %q", s.Name, s.Platform)
	}
	if nn.NetShapeByName(s.Net) == nil {
		return fmt.Errorf("scenario: %s: unknown network %q", s.Name, s.Net)
	}
	if len(s.Streams) == 0 {
		return fmt.Errorf("scenario: %s: needs at least one stream", s.Name)
	}
	for i, st := range s.Streams {
		if _, err := taskFor(st); err != nil {
			return fmt.Errorf("scenario: %s stream %d: %w", s.Name, i, err)
		}
		switch st.Arrival {
		case "", ArrivalPoisson, ArrivalPeriodic, ArrivalMMPP, ArrivalDiurnal:
		default:
			return fmt.Errorf("scenario: %s stream %d: unknown arrival %q (want %s, %s, %s or %s)",
				s.Name, i, st.Arrival, ArrivalPoisson, ArrivalPeriodic, ArrivalMMPP, ArrivalDiurnal)
		}
	}
	if err := s.Chaos.Validate(); err != nil {
		return fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	return nil
}

// taskFor resolves a stream's archetype to its satisfaction model.
func taskFor(st StreamSpec) (satisfaction.Task, error) {
	switch st.Task {
	case "age", "interactive":
		return satisfaction.AgeDetection(), nil
	case "surveillance", "realtime":
		fps := st.FPS
		if fps <= 0 {
			fps = 30
		}
		return satisfaction.VideoSurveillance(fps), nil
	case "tagging", "background":
		return satisfaction.ImageTagging(), nil
	}
	return satisfaction.Task{}, fmt.Errorf("unknown task %q (want age, surveillance or tagging)", st.Task)
}

// arrivalsFor builds a stream's arrival process at a mean rate. The
// returned kind is the effective one after archetype defaulting.
func arrivalsFor(st StreamSpec, task satisfaction.Task, rate float64, seed int64) (workload.Arrivals, string) {
	kind := st.Arrival
	if kind == "" {
		if task.Class == satisfaction.RealTime {
			kind = ArrivalPeriodic
		} else {
			kind = ArrivalPoisson
		}
	}
	switch kind {
	case ArrivalPeriodic:
		return workload.NewPeriodicArrivals(rate), kind
	case ArrivalMMPP:
		return workload.BurstyArrivals(rate, seed), kind
	case ArrivalDiurnal:
		n := st.Requests
		if n < 2 {
			n = 2
		}
		return workload.NewTraceArrivals(workload.DiurnalGaps(rate, 3, n)), kind
	default:
		return workload.NewOpenArrivals(rate, seed), ArrivalPoisson
	}
}
