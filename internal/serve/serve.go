// Package serve is the online inference-serving subsystem: it turns the
// offline artifacts of the reproduction — a compiled Plan, the GPU
// simulator, the perforation tuning path, and (optionally) the trained
// scaled network — into an event-driven server for a *stream* of requests,
// the way the paper's three task archetypes actually arrive (interactive
// age detection, fixed-fps surveillance, background tagging).
//
// The pipeline is:
//
//	Submit ──▶ admission queue ──▶ dynamic batcher ──▶ worker pool ──▶ futures
//
// The batcher coalesces requests up to the plan's compiled batch size or
// until the oldest request's slack — deadline minus the Eq 12 time-model
// prediction — runs out, whichever comes first. When predicted queue
// latency exceeds the deadline, the server does not drop the request: it
// escalates the perforation level (graceful degradation), and backtracks
// along the path (calibration) whenever a batch's measured output entropy
// crosses the user's threshold. This makes Section IV.C's run-time
// management an actual loop over live traffic rather than a precomputed
// table.
package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pcnn/internal/compile"
	"pcnn/internal/fault"
	"pcnn/internal/obs"
	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

// recoverStreak quiet batches in a row move a server's level one step
// toward base; a calibration pins its ceiling for as many batches.
const recoverStreak = 8

// traceRingCap bounds the in-memory ring of finished request traces.
const traceRingCap = 256

// Sentinel errors of the serving API.
var (
	// ErrServerClosed is returned by Submit after Close started draining.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrQueueFull is returned when admission control rejects a request
	// because the queue is at capacity (the only condition under which the
	// server refuses work; deadline pressure degrades instead).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrBreakerOpen fails a batch fast while the circuit breaker is open
	// (or while another attempt holds the half-open probe slot).
	ErrBreakerOpen = errors.New("serve: circuit breaker open")
	// ErrDeadlineUnmeetable is returned at admission (Config.RejectUnmeetable)
	// when the Eq 12 predicted completion time already exceeds the request's
	// deadline even at the deepest degradation level: accepting it could only
	// poison the queue for requests that still have a chance.
	ErrDeadlineUnmeetable = errors.New("serve: deadline unmeetable at admission")
	// ErrExecTimeout fails a batch execution attempt that outran the
	// configured per-attempt timeout.
	ErrExecTimeout = errors.New("serve: execution timed out")
)

// Config tunes the online server. The zero value picks sensible defaults.
type Config struct {
	// MaxBatch caps how many requests one flush coalesces; 0 uses the
	// executor's compiled batch size.
	MaxBatch int
	// QueueCap bounds the admission queue; 0 means 1024.
	QueueCap int
	// Workers sizes the worker pool executing flushed batches; 0 means 2.
	Workers int
	// DisableDegrade turns perforation escalation off (requests then miss
	// deadlines instead of trading accuracy) — the control configuration
	// the evaluation compares against.
	DisableDegrade bool
	// LingerMS is the longest a partially filled batch waits for more
	// arrivals when the deadline is not pressing (background tasks have no
	// deadline at all); 0 means 20 ms.
	LingerMS float64
	// Pace is how many wall-clock milliseconds a worker stays occupied per
	// simulated millisecond of batch execution. 0 disables pacing (tests,
	// offline drains); 1 serves in simulated real time, which is what
	// makes open-loop overload produce genuine queueing.
	Pace float64
	// ExecTimeoutMS bounds one batch execution attempt in wall-clock
	// milliseconds; an attempt that outruns it fails with ErrExecTimeout.
	// 0 disables the timeout.
	ExecTimeoutMS float64
	// MaxRetries is how many times a failed batch execution attempt is
	// retried (with exponential backoff and jitter) before the batch's
	// futures fail. 0 disables retries.
	MaxRetries int
	// RetryBaseMS is the backoff base: retry n sleeps RetryBaseMS·2ⁿ
	// scaled by a uniform jitter in [0.5, 1.5). 0 means 1.
	RetryBaseMS float64
	// BreakerThreshold trips the per-executor circuit breaker open after
	// this many consecutive failed execution attempts; while open, batches
	// fail fast with ErrBreakerOpen until a half-open probe succeeds.
	// 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldownMS is how long an open breaker waits before admitting
	// its half-open probe. 0 means 250.
	BreakerCooldownMS float64
	// Seed roots the retry-jitter stream, so chaos scenarios replay
	// identically. 0 means 1.
	Seed int64
	// Clock injects the time source request timestamps and batching waits
	// are read from; nil means time.Now. The scenario engine drives
	// servers on a virtual clock it advances itself, which is what makes
	// whole-scenario queueing, escalation and latency bit-reproducible.
	Clock func() time.Time
	// RejectUnmeetable turns on slack-aware early rejection: Submit answers
	// ErrDeadlineUnmeetable when the predicted completion time — queue ahead
	// plus own execution, both at the deepest reachable degradation level —
	// already exceeds the task deadline at submit time. Off by default:
	// deadline pressure then degrades or misses instead of shedding.
	RejectUnmeetable bool
	// ManualFlush disables the batcher's autonomous flushing (the linger/
	// slack timer and the batch-full trigger): pending requests coalesce
	// until Flush is called or Close drains. Virtual-time drivers use it
	// to decide batch composition deterministically; live serving leaves
	// it off.
	ManualFlush bool
	// Faults attaches a fault injector to the serving pipeline (injected
	// launch failures, slow batches, corrupted outputs, admission
	// saturation, clock skew). nil — the production default — serves clean
	// and adds nothing to the hot path.
	Faults *fault.Injector
}

func (c Config) withDefaults(execMaxBatch int) Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = execMaxBatch
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.LingerMS <= 0 {
		c.LingerMS = 20
	}
	if c.RetryBaseMS <= 0 {
		c.RetryBaseMS = 1
	}
	if c.BreakerCooldownMS <= 0 {
		c.BreakerCooldownMS = 250
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Result is one request's serving outcome.
type Result struct {
	ID    uint64
	Batch int // how many requests shared the executed batch
	Level int // degradation level the batch ran at
	// Quantized is always false: the serving ladder has no quantization
	// rung (reduced precision is an accuracy-study axis of the tensor
	// engine, not an operating point). The field stays because the frozen
	// benchmark module reads it.
	Quantized bool

	QueueMS    float64 // measured wall-clock wait until execution started
	ExecMS     float64 // simulated batch execution time
	ResponseMS float64 // QueueMS + ExecMS, the deadline-checked latency

	EnergyPerImageJ float64
	Entropy         float64
	SoC             float64
	DeadlineMet     bool

	// Probs is the request's softmax row when an executable network ran
	// the batch; nil for simulation-only pipelines.
	Probs []float32
}

type outcome struct {
	res Result
	err error
}

// Future resolves to one request's Result once its batch executed. Wait
// may be called once. Resolution is the last thing a batch does: by the
// time Wait returns, the batch is fully accounted in Stats and the
// degradation controller has observed it, so Level() already reflects any
// calibration or recovery the batch caused.
type Future struct{ ch chan outcome }

// Wait blocks until the request is served, the server fails its batch, or
// ctx expires.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case o := <-f.ch:
		return o.res, o.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// request is one queued unit of work, holding its future and trace inline
// so that admitting it is one allocation besides the future's channel and
// the trace's stages. tr travels with the request through the pipeline;
// each stage marks it, and the worker parks a copy in the trace ring at
// resolution.
type request struct {
	id    uint64
	at    time.Time
	input *tensor.Tensor // optional C×H×W sample for executable pipelines
	fut   Future
	tr    obs.Trace
}

// batchJob is one flushed batch on its way to the worker pool.
type batchJob struct {
	reqs  []*request
	level int
}

// Server is the online serving engine for one (network, device, task)
// deployment.
type Server struct {
	cfg  Config
	task satisfaction.Task
	ex   Executor
	ctrl *controller
	st   *stats

	reg    *obs.Registry
	met    *serveMetrics
	traces *obs.TraceRing

	mu     sync.RWMutex // guards closed and the submitCh send
	closed bool

	submitCh chan *request
	flushCh  chan *batchJob
	// flushReqCh carries explicit Flush requests to the batcher; the
	// reply channel resolves with how many requests the flush moved.
	flushReqCh chan chan int

	batcherDone chan struct{}
	workers     sync.WaitGroup

	nextID   atomic.Uint64
	inflight atomic.Int64 // batches flushed but not yet executed
	// busyUntil is the externally-declared worker-occupancy horizon
	// (UnixNano; 0 = none) virtual-time drivers feed predictions with.
	busyUntil atomic.Int64

	// brk fail-fasts batch execution after consecutive failures; faults is
	// the (possibly nil) chaos injector threaded through the pipeline.
	brk    *breaker
	faults *fault.Injector

	// retryRng draws the deterministic backoff jitter; workers share it.
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// timerHook, when non-nil, replaces the batcher's flush timer; tests
	// inject a hand-fired fake to pin flush-vs-submit interleavings.
	timerHook func() batcherTimer
}

// NewServer starts the batcher and worker pool for an executor serving a
// task. Callers must Close the server to release its goroutines.
func NewServer(ex Executor, task satisfaction.Task, cfg Config) (*Server, error) {
	return newServer(ex, task, cfg, recoverStreak, nil)
}

// newServer is NewServer with two test seams exposed: the recovery streak,
// so a test can move the level often, and the batcher timer, so a test can
// inject a hand-fired one before the batcher goroutine starts.
func newServer(ex Executor, task satisfaction.Task, cfg Config, recoverAfter int, timerHook func() batcherTimer) (*Server, error) {
	if ex == nil {
		return nil, errors.New("serve: nil executor")
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(BatchCap(ex, task))
	s := &Server{
		cfg:         cfg,
		task:        task,
		ex:          ex,
		ctrl:        newController(ex.Levels(), BaseLevel(ex, task), recoverAfter),
		st:          newStats(),
		reg:         obs.NewRegistry(),
		traces:      obs.NewTraceRing(traceRingCap),
		submitCh:    make(chan *request, cfg.QueueCap),
		flushCh:     make(chan *batchJob, cfg.Workers),
		flushReqCh:  make(chan chan int),
		batcherDone: make(chan struct{}),
		// The breaker reads the configured clock, so virtual-time drivers
		// (scenario engine, fleet soak) get deterministic cooldown windows.
		brk: newBreaker(cfg.BreakerThreshold,
			time.Duration(cfg.BreakerCooldownMS*float64(time.Millisecond)), cfg.Clock),
		faults:    cfg.Faults,
		retryRng:  rand.New(rand.NewSource(cfg.Seed)),
		timerHook: timerHook,
	}
	s.met = newMetrics(s.reg, s)
	go s.batcher()
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// BaseLevel picks the preferred operating point the way the P-CNN
// scheduler does: the most aggressive level whose recorded entropy stays
// inside the task's threshold (level 0 when none does).
func BaseLevel(ex Executor, task satisfaction.Task) int {
	base := 0
	for l := 0; l < ex.Levels(); l++ {
		if ex.Entropy(l) <= task.EntropyThreshold {
			base = l
		}
	}
	return base
}

// batchCapProbe bounds BatchCap's deadline-fit search; no roadmap platform
// compiles a batch anywhere near it.
const batchCapProbe = 64

// BatchLimiter is implemented by executors whose batch size has a hard
// ceiling beyond the compiled plan's pick — PlanExecutor's is the largest
// batch that still fits device memory. BatchCap respects it.
type BatchLimiter interface {
	// BatchLimit returns the largest executable batch (≥ 1), or 0 for
	// unlimited.
	BatchLimit() int
}

// BatchCap is the serving batch ceiling for a deployment: at least the
// plan's compiled batch, widened batch by batch while the Eq 12 base-level
// prediction still fits inside the task deadline (and inside the
// executor's memory ceiling when it declares one), so every batch up to
// the cap is predicted to fit. The compiler picks its batch from a single
// stream's data rate — one frame per surveillance period — which is
// exactly the choice that pinned serving to singleton flushes; batching is
// bounded by the deadline instead.
func BatchCap(ex Executor, task satisfaction.Task) int {
	cap := ex.MaxBatch()
	if cap < 1 {
		cap = 1
	}
	deadline := task.Deadline()
	if math.IsInf(deadline, 1) {
		return cap
	}
	limit := batchCapProbe
	if bl, ok := ex.(BatchLimiter); ok {
		if l := bl.BatchLimit(); l > 0 && l < limit {
			limit = l
		}
	}
	base := BaseLevel(ex, task)
	best := cap
	for b := cap + 1; b <= limit; b++ {
		if ex.PredictMS(base, b) > deadline {
			// The first miss ends the widening. The prediction is not
			// monotone in batch — it steps down where the nearest anchor
			// plan changes — so a larger batch may fit again; stopping
			// here keeps the cap below every batch predicted to miss.
			break
		}
		best = b
	}
	return best
}

// Submit enqueues one request without an input sample.
func (s *Server) Submit() (*Future, error) { return s.SubmitInput(nil) }

// SubmitInput enqueues one request, carrying a C×H×W sample for pipelines
// with an executable network attached (nil for simulation-only ones). It
// never blocks: admission control answers immediately with a future,
// ErrQueueFull, ErrDeadlineUnmeetable or ErrServerClosed.
func (s *Server) SubmitInput(input *tensor.Tensor) (*Future, error) {
	id := s.nextID.Add(1)
	r := &request{
		id:    id,
		at:    s.stamp(),
		input: input,
		fut:   Future{ch: make(chan outcome, 1)},
		tr:    obs.NewTrace(id, s.cfg.Clock),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	if s.faults.Saturate() {
		// Injected queue saturation: reject as if the queue were full.
		s.st.rejectedInc(rejectSaturated)
		return nil, ErrQueueFull
	}
	if s.cfg.RejectUnmeetable {
		// The same safety guard the batching policy flushes with: admitting
		// at exactly zero predicted slack books a miss whenever the Eq 12
		// estimate trails the simulated execution.
		if pred := s.admitPredictMS(); s.task.SlackMS(0, pred) < slackGuardFrac*pred {
			s.st.rejectedInc(rejectUnmeetable)
			return nil, ErrDeadlineUnmeetable
		}
	}
	// Mark before the send: the channel hand-off transfers trace
	// ownership to the batcher, so no mark may follow it here.
	r.tr.Mark("submit")
	// Count before the hand-off: once r is in the channel a worker may
	// resolve it before this goroutine runs again, and a decrement landing
	// ahead of its increment would be a request resolved but never queued.
	s.st.submittedInc()
	select {
	case s.submitCh <- r:
		return &r.fut, nil
	default:
		s.st.submitRejectedFull()
		return nil, ErrQueueFull
	}
}

// predictQueueMS estimates how long a request submitted right now would
// take to complete at a level: any externally-declared worker
// occupancy, plus the accepted-but-unresolved backlog grouped into
// MaxBatch-sized batches spread across the worker pool, plus the
// request's own batch. It costs two Eq 12 evaluations and one lock.
func (s *Server) predictQueueMS(level int) float64 {
	depth := s.st.queueDepth()
	ahead := float64(depth/s.cfg.MaxBatch) *
		s.ex.PredictMS(level, s.cfg.MaxBatch) / float64(s.cfg.Workers)
	own := depth%s.cfg.MaxBatch + 1
	return s.busyMS() + ahead + s.ex.PredictMS(level, own)
}

// SetBusyUntil declares worker occupancy the server cannot observe
// itself: the virtual-time driver (simdrive.Window) resolves executed
// batches immediately in wall-clock terms, so the simulated busy horizon
// it tracks would otherwise be invisible to admission control and
// completion prediction. Live serving never calls this — there the
// in-queue depth carries the backlog — except through POST /busy. The
// declared horizon naturally expires as the clock passes t.
func (s *Server) SetBusyUntil(t time.Time) {
	s.busyUntil.Store(t.UnixNano())
}

// busyMS returns the declared occupancy horizon remaining from now, in
// clock milliseconds (0 when unset or already passed).
func (s *Server) busyMS() float64 {
	nano := s.busyUntil.Load()
	if nano == 0 {
		return 0
	}
	ms := float64(nano-s.cfg.Clock().UnixNano()) / float64(time.Millisecond)
	if ms < 0 {
		return 0
	}
	return ms
}

// Prediction is the serving-side prediction state one replica exports to
// remote routers: the Eq 12 completion estimate and the queue/degradation
// inputs it was derived from. It is the GET /predict wire payload, so a
// fleet's HTTPReplica can participate in least-slack ordering, hedging
// and unmeetable rejection exactly like an in-process node.
type Prediction struct {
	// PredictMS is the Eq 12 completion estimate for a request submitted
	// now at the current degradation level: the routing signal a fleet
	// compares across replicas (and hedges on).
	PredictMS float64 `json:"predict_ms"`
	// BatchMS is the Eq 12 execution estimate for the requested batch size
	// at the current level (0 when no batch size was asked for).
	BatchMS float64 `json:"batch_ms,omitempty"`
	// CapacityRPS is the steady-state serving rate at the base operating
	// point — the ring weight a remote router should use.
	CapacityRPS float64 `json:"capacity_rps"`
	// Level / BaseLevel are the current and preferred perforation levels.
	Level     int `json:"level"`
	BaseLevel int `json:"base_level"`
	// QueueDepth counts accepted-but-unresolved requests.
	QueueDepth int `json:"queue_depth"`
	// BusyMS is the declared worker-occupancy horizon remaining (see
	// SetBusyUntil); live servers report 0.
	BusyMS float64 `json:"busy_ms"`
	// MaxBatch is the effective serving batch cap.
	MaxBatch int `json:"max_batch"`
}

// Predict assembles the exported prediction state. batch > 0 additionally
// prices executing that batch size at the current level.
func (s *Server) Predict(batch int) Prediction {
	level := s.ctrl.Level()
	p := Prediction{
		PredictMS:   s.predictQueueMS(level),
		CapacityRPS: s.CapacityRPS(),
		Level:       level,
		BaseLevel:   s.ctrl.base,
		QueueDepth:  s.st.queueDepth(),
		BusyMS:      s.busyMS(),
		MaxBatch:    s.cfg.MaxBatch,
	}
	if batch > 0 {
		p.BatchMS = s.ex.PredictMS(level, batch)
	}
	return p
}

// admitPredictMS prices admission at the deepest level escalation can
// currently *reach* (the cheapest execution still open to it), so early
// rejection only sheds requests graceful degradation could not have
// saved. That is the path's end normally, but while entropy calibration
// holds a lower ceiling, pricing at the fenced-off deeper levels would
// admit requests the controller then refuses to save. With degradation
// disabled the pinned level is the only one available.
func (s *Server) admitPredictMS() float64 {
	level := s.ctrl.reachable()
	if s.cfg.DisableDegrade {
		level = s.ctrl.Level()
	}
	return s.predictQueueMS(level)
}

// CapacityRPS is one worker's steady-state serving rate at an executor's
// base operating point: full batches of the given size at the Eq 12
// predicted rate (0 when the prediction is degenerate). It is computable
// before any server exists, which is how load-relative drivers derive
// their offered rates.
func CapacityRPS(ex Executor, task satisfaction.Task, batch int) float64 {
	pred := ex.PredictMS(BaseLevel(ex, task), batch)
	if pred <= 0 {
		return 0
	}
	return float64(batch) * 1000 / pred
}

// CapacityRPS is the replica's steady-state serving capacity at its base
// operating point: full batches at the Eq 12 predicted rate across the
// worker pool. Fleet routing derives ring weights from it.
func (s *Server) CapacityRPS() float64 {
	return CapacityRPS(s.ex, s.task, s.cfg.MaxBatch) * float64(s.cfg.Workers)
}

// stamp reads the configured clock, shifted by the injector's clock skew
// when one is attached. Skewed timestamps exercise the negative-queue-time
// and deadline edge cases real NTP steps produce.
func (s *Server) stamp() time.Time {
	t := s.cfg.Clock()
	if s.faults != nil {
		t = t.Add(s.faults.Skew())
	}
	return t
}

// sinceMS returns the clock milliseconds elapsed since t on the server's
// configured clock.
func (s *Server) sinceMS(t time.Time) float64 {
	return float64(s.cfg.Clock().Sub(t)) / float64(time.Millisecond)
}

// Flush forces the batcher to flush everything pending — requests already
// coalescing plus any sitting in the admission queue — to the worker pool
// immediately, in admission order, chunked to MaxBatch. It blocks until
// the hand-off happened and returns how many requests were flushed (0
// when nothing was pending or the server is draining). Flush is how a
// ManualFlush driver closes each batch it composed: the driver then waits
// on that batch's futures, and the completion contract (see Future) makes
// the next Level() and Stats() read deterministic — no polling. It is also
// safe, if rarely useful, on an autonomously flushing server.
func (s *Server) Flush() int {
	done := make(chan int, 1)
	select {
	case s.flushReqCh <- done:
		return <-done
	case <-s.batcherDone:
		return 0
	}
}

// Close stops admission, drains every accepted request through the worker
// pool, and waits for the pipeline to exit (bounded by ctx). Every future
// handed out before Close resolves.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.submitCh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		<-s.batcherDone
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a point-in-time snapshot of the serving metrics. The
// admission counters are read under one lock, so the conservation
// invariant Submitted == Completed + Failed + QueueDepth holds exactly in
// every snapshot, concurrent traffic included.
func (s *Server) Stats() Snapshot {
	n := s.ctrl.counts()
	st, trips, resets := s.brk.snapshot()
	return s.st.snapshot(s.task, s.ctrl.Level(), n.escalations, n.calibrations, n.recoveries, st, trips, resets)
}

// Latencies returns a copy of the histogram of every completed request's
// ResponseMS, the distribution Stats' percentiles are read from.
func (s *Server) Latencies() obs.LatencyHist { return s.st.latencies() }

// BreakerState returns the circuit breaker's current position (closed
// when no breaker is configured).
func (s *Server) BreakerState() BreakerState {
	st, _, _ := s.brk.snapshot()
	return st
}

// FaultCounts returns the attached injector's per-kind injection tallies
// (all zero when serving clean).
func (s *Server) FaultCounts() fault.Counts { return s.faults.Counts() }

// Task returns the task this server was deployed for.
func (s *Server) Task() satisfaction.Task { return s.task }

// Level returns the current degradation level (0 = unperforated).
func (s *Server) Level() int { return s.ctrl.Level() }

// Metrics returns the server's metric registry — every serving gauge,
// counter and histogram lives here; callers may register their own
// process-level metrics alongside before exporting.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// WriteMetrics renders the server's metrics in Prometheus text exposition
// format.
func (s *Server) WriteMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }

// Traces returns up to n recent finished request traces, newest first
// (n ≤ 0 returns every held trace).
func (s *Server) Traces(n int) []obs.Trace {
	all := s.traces.Recent()
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// LayerProfiler is implemented by executors that can break one batch
// execution into a per-layer time/energy profile. PlanExecutor implements
// it from the simulator's per-launch results.
type LayerProfiler interface {
	Profile(level, batch int) ([]compile.LayerProfile, error)
}

// LayerProfile returns the per-layer breakdown of executing a full batch
// at the server's current degradation level, or an error when the
// executor cannot profile (e.g. test fakes).
func (s *Server) LayerProfile() ([]compile.LayerProfile, error) {
	lp, ok := s.ex.(LayerProfiler)
	if !ok {
		return nil, errors.New("serve: executor does not support layer profiling")
	}
	return lp.Profile(s.ctrl.Level(), s.cfg.MaxBatch)
}
