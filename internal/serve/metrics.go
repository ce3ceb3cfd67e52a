package serve

import (
	"strconv"

	"pcnn/internal/fault"
	"pcnn/internal/obs"
	"pcnn/internal/tensor"
)

// Bucket layouts for the serving histograms. Response and stage times are
// milliseconds; batch sizes cover every power of two up to the largest
// compiled batch the roadmap's platforms use.
var (
	responseBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
	stageBuckets    = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}
	batchBuckets    = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// traceStages are the lifecycle stages every request trace marks, in
// order. finishTrace relies on "execute" preceding "resolve".
var traceStages = []string{"submit", "coalesce", "escalate", "execute", "resolve"}

// serveMetrics is the server's registered metric set. Everything is
// pre-registered at construction — per-level histograms indexed by the
// clamped level, stage histograms keyed by name — so the hot path does no
// registry lookups and takes no locks beyond the histograms' atomics.
type serveMetrics struct {
	response  []*obs.Histogram // pcnn_serve_response_ms{level}
	batchSize []*obs.Histogram // pcnn_serve_batch_size{level}
	stages    map[string]*obs.Histogram
}

// newMetrics registers the serving metric set on reg, bridging the
// server's existing tallies (stats, controller, queue gauges) through
// export-time reader funcs so nothing is double-counted.
func newMetrics(reg *obs.Registry, s *Server) *serveMetrics {
	reg.GaugeFunc("pcnn_serve_queue_depth",
		"Requests accepted but not yet executed.",
		func() float64 { return float64(s.st.queueDepth()) })
	reg.GaugeFunc("pcnn_serve_inflight_batches",
		"Batches flushed to the worker pool but not yet finished.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("pcnn_serve_level",
		"Current perforation (degradation) level; 0 is the full network.",
		func() float64 { return float64(s.ctrl.Level()) })
	reg.GaugeFunc("pcnn_serve_throughput_rps",
		"Completions per second over the sliding window.",
		s.st.windowedRPS)
	reg.GaugeFunc("pcnn_serve_lifetime_rps",
		"Completions per second since the server started.",
		s.st.lifetimeRPS)

	const reqHelp = "Requests by outcome over the server's lifetime."
	reg.CounterFunc("pcnn_serve_requests_total", reqHelp,
		s.st.counterFn(func(st *stats) uint64 { return st.submitted }),
		obs.Label{Key: "outcome", Value: "submitted"})
	reg.CounterFunc("pcnn_serve_requests_total", reqHelp,
		s.st.counterFn(func(st *stats) uint64 { return st.rejected }),
		obs.Label{Key: "outcome", Value: "rejected"})
	reg.CounterFunc("pcnn_serve_requests_total", reqHelp,
		s.st.counterFn(func(st *stats) uint64 { return st.completed }),
		obs.Label{Key: "outcome", Value: "completed"})
	reg.CounterFunc("pcnn_serve_requests_total", reqHelp,
		s.st.counterFn(func(st *stats) uint64 { return st.failed }),
		obs.Label{Key: "outcome", Value: "failed"})

	const rejHelp = "Requests rejected at admission, by reason."
	for r := rejectReason(0); r < numRejectReasons; r++ {
		r := r
		reg.CounterFunc("pcnn_serve_rejected_total", rejHelp,
			s.st.counterFn(func(st *stats) uint64 { return st.rejects[r] }),
			obs.Label{Key: "reason", Value: r.String()})
	}

	reg.CounterFunc("pcnn_serve_deadline_miss_total",
		"Completed requests whose response time exceeded the task deadline.",
		s.st.counterFn(func(st *stats) uint64 { return st.missed }))
	reg.CounterFunc("pcnn_serve_batches_total",
		"Batches executed.",
		s.st.counterFn(func(st *stats) uint64 { return st.batches }))
	reg.CounterFunc("pcnn_serve_batch_demotions_total",
		"Batches demoted to simulation-only classification because their input samples were missing or heterogeneous.",
		s.st.counterFn(func(st *stats) uint64 { return st.demoted }))

	reg.CounterFunc("pcnn_serve_escalations_total",
		"Perforation-level escalations under deadline pressure.",
		func() float64 { return float64(s.ctrl.counts().escalations) })
	reg.CounterFunc("pcnn_serve_calibrations_total",
		"Entropy-triggered calibration backtracks.",
		func() float64 { return float64(s.ctrl.counts().calibrations) })
	reg.CounterFunc("pcnn_serve_recoveries_total",
		"Comfortable-slack recoveries easing the level back down.",
		func() float64 { return float64(s.ctrl.counts().recoveries) })

	reg.GaugeFunc("pcnn_serve_breaker_state",
		"Circuit breaker position: 0 closed, 1 half-open, 2 open.",
		func() float64 { st, _, _ := s.brk.snapshot(); return float64(st) })
	reg.CounterFunc("pcnn_serve_breaker_trips_total",
		"Circuit breaker trips (closed or half-open to open).",
		func() float64 { _, trips, _ := s.brk.snapshot(); return float64(trips) })
	reg.CounterFunc("pcnn_serve_breaker_resets_total",
		"Circuit breaker resets (half-open probe success to closed).",
		func() float64 { _, _, resets := s.brk.snapshot(); return float64(resets) })
	reg.CounterFunc("pcnn_serve_retries_total",
		"Batch execution attempts retried after a failure.",
		s.st.counterFn(func(st *stats) uint64 { return st.retries }))
	reg.CounterFunc("pcnn_serve_exec_timeouts_total",
		"Batch execution attempts cut off by the per-attempt timeout.",
		s.st.counterFn(func(st *stats) uint64 { return st.timeouts }))
	// Host GEMM engine state: the default engine's worker count and the
	// blocked tile this host runs (one per ISA level, fixed at init), so a
	// deployment dashboard can tell an AVX-512 12×32, AVX2 6×16 or NEON
	// 8×8 host from a scalar 8×4 one.
	eng := tensor.Default()
	reg.GaugeFunc("pcnn_gemm_workers",
		"Chunks a sharded GEMM on the default engine splits into (GOMAXPROCS).",
		func() float64 { return float64(eng.Workers()) })
	tile := tensor.DefaultTile
	reg.Gauge("pcnn_gemm_tile_mc",
		"Blocked-backend cache tile of this build: A-block rows (MC).").Set(float64(tile.MC))
	reg.Gauge("pcnn_gemm_tile_kc",
		"Blocked-backend cache tile of this build: block depth (KC).").Set(float64(tile.KC))
	reg.Gauge("pcnn_gemm_tile_mr",
		"Blocked-backend register tile of this build: rows (MR).").Set(float64(tile.MR))
	reg.Gauge("pcnn_gemm_tile_nr",
		"Blocked-backend register tile of this build: columns (NR).").Set(float64(tile.NR))

	if s.faults != nil {
		for _, k := range fault.Kinds() {
			k := k
			reg.CounterFunc("pcnn_serve_injected_faults_total",
				"Faults injected by the attached chaos injector, by kind.",
				func() float64 { return float64(s.faults.Count(k)) },
				obs.Label{Key: "kind", Value: k.String()})
		}
	}

	m := &serveMetrics{stages: make(map[string]*obs.Histogram, len(traceStages))}
	levels := s.ex.Levels()
	if levels < 1 {
		levels = 1
	}
	for l := 0; l < levels; l++ {
		lbl := obs.Label{Key: "level", Value: strconv.Itoa(l)}
		m.response = append(m.response, reg.Histogram("pcnn_serve_response_ms",
			"End-to-end response time (queue + execution) in milliseconds.",
			responseBuckets, lbl))
		m.batchSize = append(m.batchSize, reg.Histogram("pcnn_serve_batch_size",
			"Coalesced batch sizes per executed batch.",
			batchBuckets, lbl))
	}
	for _, name := range traceStages {
		m.stages[name] = reg.Histogram("pcnn_serve_stage_ms",
			"Per-stage request lifecycle durations in milliseconds.",
			stageBuckets, obs.Label{Key: "stage", Value: name})
	}
	return m
}

// clampLevel maps any level onto the pre-registered range.
func (m *serveMetrics) clampLevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(m.response) {
		return len(m.response) - 1
	}
	return level
}

// observeBatch records one executed batch's size at its level.
func (m *serveMetrics) observeBatch(level, n int) {
	m.batchSize[m.clampLevel(level)].Observe(float64(n))
}

// observeResponse records one request's response time at its level.
func (m *serveMetrics) observeResponse(level int, ms float64) {
	m.response[m.clampLevel(level)].Observe(ms)
}

// observeStages folds a finished trace's stage durations into the
// per-stage histograms.
func (m *serveMetrics) observeStages(tr *obs.Trace) {
	for _, st := range tr.Stages {
		if h, ok := m.stages[st.Name]; ok {
			h.Observe(st.DurMS)
		}
	}
}
