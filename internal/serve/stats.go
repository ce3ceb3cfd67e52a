package serve

import (
	"sync"
	"time"

	"pcnn/internal/obs"
	"pcnn/internal/satisfaction"
)

// throughputWindowSec is the sliding window ThroughputRPS is computed
// over. Idle periods older than this age out of the reported rate; the
// lifetime average stays available as LifetimeRPS.
const throughputWindowSec = 30

// rejectReason tags why admission refused a request; the values index
// stats.rejects and label pcnn_serve_rejected_total.
type rejectReason int

const (
	rejectQueueFull rejectReason = iota
	rejectUnmeetable
	rejectSaturated
	numRejectReasons
)

// String names the reason the way the metric label does.
func (r rejectReason) String() string {
	switch r {
	case rejectQueueFull:
		return "queue_full"
	case rejectUnmeetable:
		return "unmeetable"
	case rejectSaturated:
		return "saturated"
	}
	return "unknown"
}

// stats accumulates serving metrics. All methods are safe for concurrent
// use.
type stats struct {
	mu        sync.Mutex
	now       func() time.Time
	start     time.Time
	win       *obs.RateWindow
	submitted uint64
	rejected  uint64
	rejects   [numRejectReasons]uint64
	completed uint64
	failed    uint64
	batches   uint64
	batchSum  uint64
	missed    uint64
	demoted   uint64 // batches demoted to simulation-only by gatherInputs
	retries   uint64 // batch execution attempts retried after a failure
	timeouts  uint64 // attempts cut off by the per-attempt timeout
	// inQueue counts requests accepted but not yet resolved. It moves
	// under the same mutex as submitted/completed/failed, so snapshots
	// satisfy submitted == completed + failed + inQueue exactly — the
	// conservation invariant the chaos soak test asserts at every sample.
	inQueue uint64

	energyJ    float64
	socSum     float64
	entropySum float64

	lat obs.LatencyHist // every completion's ResponseMS
}

func newStats() *stats { return newStatsClock(time.Now) }

// newStatsClock injects the clock; tests use it to exercise idle gaps
// without sleeping.
func newStatsClock(now func() time.Time) *stats {
	return &stats{
		now:   now,
		start: now(),
		win:   obs.NewRateWindow(throughputWindowSec, now),
	}
}

// submittedInc counts one request as accepted and queued. Submit calls it
// before the channel hand-off: a worker may resolve the request before the
// submitter runs again, and its decrement must never land ahead of this
// increment (TestSubmitAccountingRace).
func (s *stats) submittedInc() {
	s.mu.Lock()
	s.submitted++
	s.inQueue++
	s.mu.Unlock()
}

// submitRejectedFull takes back the submittedInc of a request the full
// queue turned away and counts the rejection in the same critical section,
// so no snapshot sees the request as neither queued nor rejected.
func (s *stats) submitRejectedFull() {
	s.mu.Lock()
	s.submitted--
	s.inQueue--
	s.rejected++
	s.rejects[rejectQueueFull]++
	s.mu.Unlock()
}

// retryInc counts one retried execution attempt.
func (s *stats) retryInc() {
	s.mu.Lock()
	s.retries++
	s.mu.Unlock()
}

// timeoutInc counts one attempt killed by the execution timeout.
func (s *stats) timeoutInc() {
	s.mu.Lock()
	s.timeouts++
	s.mu.Unlock()
}

// queueDepth reads the accepted-but-unresolved request count.
func (s *stats) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.inQueue)
}

func (s *stats) rejectedInc(reason rejectReason) {
	s.mu.Lock()
	s.rejected++
	s.rejects[reason]++
	s.mu.Unlock()
}

// demotedInc counts one batch silently demoted to simulation-only
// classification (heterogeneous or partially missing input samples).
func (s *stats) demotedInc() {
	s.mu.Lock()
	s.demoted++
	s.mu.Unlock()
}

// record folds one completed request's result in.
func (s *stats) record(r Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	s.inQueue-- // submittedInc came first; an underflow wraps, loudly
	s.win.Add(1)
	if !r.DeadlineMet {
		s.missed++
	}
	s.energyJ += r.EnergyPerImageJ
	s.socSum += r.SoC
	s.entropySum += r.Entropy
	s.lat.Observe(r.ResponseMS)
}

// latencies returns a copy of the latency histogram.
func (s *stats) latencies() obs.LatencyHist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lat
}

// batchDone records one executed batch of n requests.
func (s *stats) batchDone(n int) {
	s.mu.Lock()
	s.batches++
	s.batchSum += uint64(n)
	s.mu.Unlock()
}

// failBatch records n requests whose batch execution errored.
func (s *stats) failBatch(n int) {
	s.mu.Lock()
	s.failed += uint64(n)
	s.inQueue -= uint64(n)
	s.mu.Unlock()
}

// windowedRPS is the completion rate over the last throughputWindowSec
// seconds.
func (s *stats) windowedRPS() float64 { return s.win.Rate() }

// lifetimeRPS is completions ÷ uptime, the value ThroughputRPS used to
// (incorrectly) report.
func (s *stats) lifetimeRPS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lifetimeRPSLocked()
}

func (s *stats) lifetimeRPSLocked() float64 {
	if s.completed == 0 {
		return 0
	}
	elapsed := s.now().Sub(s.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(s.completed) / elapsed
}

// counterFn returns an export-time reader of one tallied value, for the
// registry's CounterFunc bridge.
func (s *stats) counterFn(read func(*stats) uint64) func() float64 {
	return func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(read(s))
	}
}

// Snapshot is a point-in-time view of a server's serving metrics.
type Snapshot struct {
	Task  string `json:"task"`
	Class string `json:"class"`

	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	// The per-reason rejection split: queue at capacity, slack-aware early
	// rejection (ErrDeadlineUnmeetable), and injected saturation faults.
	// They sum to Rejected.
	RejectedQueueFull  uint64 `json:"rejected_queue_full"`
	RejectedUnmeetable uint64 `json:"rejected_unmeetable"`
	RejectedSaturated  uint64 `json:"rejected_saturated"`
	Completed          uint64 `json:"completed"`
	Failed             uint64 `json:"failed"`
	Batches            uint64 `json:"batches"`
	DemotedBatches     uint64 `json:"demoted_batches"`

	MeanBatch float64 `json:"mean_batch"`
	// ThroughputRPS is the completion rate over the last
	// throughputWindowSec seconds; LifetimeRPS is completions ÷ uptime.
	ThroughputRPS float64 `json:"throughput_rps"`
	LifetimeRPS   float64 `json:"lifetime_rps"`

	// Response-latency percentiles over every completion of the server's
	// life, each its obs.LatencyHist bucket's lower edge (≈2.3% below the
	// nearest-rank sample at most).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	// DeadlineMissed is the absolute count behind DeadlineMissRate, so
	// drivers can report rejected-vs-missed separately without deriving
	// counts from a float rate.
	DeadlineMissed   uint64  `json:"deadline_missed"`
	DeadlineMissRate float64 `json:"deadline_miss_rate"`
	MeanSoC          float64 `json:"mean_soc"`
	MeanEntropy      float64 `json:"mean_entropy"`
	EnergyPerImageJ  float64 `json:"energy_per_image_j"`

	Level        int    `json:"level"`
	QueueDepth   int    `json:"queue_depth"`
	Escalations  uint64 `json:"escalations"`
	Calibrations uint64 `json:"calibrations"`
	Recoveries   uint64 `json:"recoveries"`

	// Hardening counters: execution retries, per-attempt timeouts, and
	// the circuit breaker's state and lifetime transitions.
	Retries       uint64 `json:"retries"`
	ExecTimeouts  uint64 `json:"exec_timeouts"`
	BreakerState  string `json:"breaker_state"`
	BreakerTrips  uint64 `json:"breaker_trips"`
	BreakerResets uint64 `json:"breaker_resets"`
}

// snapshot assembles the exported view. QueueDepth comes from the
// mutex-guarded inQueue tally, so Submitted == Completed + Failed +
// QueueDepth holds in every snapshot.
func (s *stats) snapshot(task satisfaction.Task, level int, esc, cal, rec uint64,
	brkState BreakerState, trips, resets uint64) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Task:               task.Name,
		Class:              task.Class.String(),
		Submitted:          s.submitted,
		Rejected:           s.rejected,
		RejectedQueueFull:  s.rejects[rejectQueueFull],
		RejectedUnmeetable: s.rejects[rejectUnmeetable],
		RejectedSaturated:  s.rejects[rejectSaturated],
		Completed:          s.completed,
		Failed:             s.failed,
		Batches:            s.batches,
		DemotedBatches:     s.demoted,
		DeadlineMissed:     s.missed,
		Level:              level,
		QueueDepth:         int(s.inQueue),
		Escalations:        esc,
		Calibrations:       cal,
		Recoveries:         rec,
		Retries:            s.retries,
		ExecTimeouts:       s.timeouts,
		BreakerState:       brkState.String(),
		BreakerTrips:       trips,
		BreakerResets:      resets,
	}
	if s.batches > 0 {
		snap.MeanBatch = float64(s.batchSum) / float64(s.batches)
	}
	if s.completed > 0 {
		snap.ThroughputRPS = s.win.Rate()
		snap.LifetimeRPS = s.lifetimeRPSLocked()
		snap.DeadlineMissRate = float64(s.missed) / float64(s.completed)
		snap.MeanSoC = s.socSum / float64(s.completed)
		snap.MeanEntropy = s.entropySum / float64(s.completed)
		snap.EnergyPerImageJ = s.energyJ / float64(s.completed)
	}
	snap.P50MS = s.lat.Percentile(0.50)
	snap.P95MS = s.lat.Percentile(0.95)
	snap.P99MS = s.lat.Percentile(0.99)
	return snap
}
