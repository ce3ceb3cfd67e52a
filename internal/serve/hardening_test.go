package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcnn/internal/fault"
	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
	"pcnn/internal/workload"
)

// flakyExec fails Execute while `failing` is set (or for the first
// failFirst calls), then serves cleanly.
type flakyExec struct {
	maxBatch  int
	failing   atomic.Bool
	failFirst int64
	calls     atomic.Int64
	execMS    float64
	sleep     time.Duration
}

var errFlaky = errors.New("flaky executor down")

func (f *flakyExec) MaxBatch() int              { return f.maxBatch }
func (f *flakyExec) Levels() int                { return 2 }
func (f *flakyExec) Entropy(int) float64        { return 0.1 }
func (f *flakyExec) PredictMS(_, n int) float64 { return f.execMS * float64(n) }

func (f *flakyExec) Execute(_, n int, _ *tensor.Tensor) (BatchResult, error) {
	c := f.calls.Add(1)
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	if f.failing.Load() || c <= f.failFirst {
		return BatchResult{}, errFlaky
	}
	return BatchResult{TimeMS: f.execMS * float64(n), EnergyJ: 0.1, Entropy: 0.1}, nil
}

// TestRetryResolvesAfterTransientFailure: a batch whose first attempt
// fails still resolves successfully through the bounded retry loop, and
// the retry is counted.
func TestRetryResolvesAfterTransientFailure(t *testing.T) {
	ex := &flakyExec{maxBatch: 4, failFirst: 1, execMS: 1}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 1, LingerMS: 1, MaxRetries: 3, RetryBaseMS: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	res := waitAll(t, []*Future{fut})
	if res[0].ExecMS <= 0 {
		t.Fatalf("result %+v from retried batch", res[0])
	}
	closeServer(t, s)
	snap := s.Stats()
	if snap.Retries < 1 {
		t.Fatalf("Retries = %d, want ≥ 1", snap.Retries)
	}
	if snap.Failed != 0 || snap.Completed != 1 {
		t.Fatalf("completed %d failed %d, want 1 and 0", snap.Completed, snap.Failed)
	}
}

// TestNoResolutionAfterCloseDrain is the -race regression for the
// drain-on-Close guarantee: with retries, timeouts and failures all in
// play, once Close returns every accepted future holds exactly one
// buffered outcome — none lost, none resolved twice, and nothing can
// resolve later because only the (now exited) workers touch futures.
func TestNoResolutionAfterCloseDrain(t *testing.T) {
	ex := &flakyExec{maxBatch: 4, execMS: 0.5, sleep: 200 * time.Microsecond}
	ex.failing.Store(true)
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 3, LingerMS: 1, MaxRetries: 2, RetryBaseMS: 0.1,
		ExecTimeoutMS: 50, BreakerThreshold: 5, BreakerCooldownMS: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for i := 0; i < 64; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, f)
		if i == 32 {
			ex.failing.Store(false) // heal mid-stream: mixed outcomes
		}
	}
	closeServer(t, s)
	for i, f := range futs {
		if got := len(f.ch); got != 1 {
			t.Fatalf("future %d holds %d outcomes after drain, want exactly 1", i, got)
		}
	}
	// A second receive finding the channel empty proves single resolution.
	for i, f := range futs {
		<-f.ch
		select {
		case <-f.ch:
			t.Fatalf("future %d resolved twice", i)
		default:
		}
	}
	snap := s.Stats()
	if snap.Submitted != snap.Completed+snap.Failed {
		t.Fatalf("drain leaked requests: submitted %d != completed %d + failed %d",
			snap.Submitted, snap.Completed, snap.Failed)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", snap.QueueDepth)
	}
}

// TestExecTimeoutFailsAttempt: an executor outrunning the per-attempt
// timeout fails the batch with ErrExecTimeout, and the orphaned attempt
// finishing later resolves nothing.
func TestExecTimeoutFailsAttempt(t *testing.T) {
	ex := &flakyExec{maxBatch: 2, execMS: 1, sleep: 150 * time.Millisecond}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 1, LingerMS: 1, ExecTimeoutMS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, ErrExecTimeout) {
		t.Fatalf("Wait err = %v, want ErrExecTimeout", err)
	}
	closeServer(t, s)
	snapBefore := s.Stats()
	if snapBefore.ExecTimeouts < 1 {
		t.Fatalf("ExecTimeouts = %d, want ≥ 1", snapBefore.ExecTimeouts)
	}
	// Let the orphaned Execute goroutine finish into its discarded
	// channel; nothing about the resolved state may change.
	time.Sleep(200 * time.Millisecond)
	if snapAfter := s.Stats(); snapAfter.Completed != snapBefore.Completed ||
		snapAfter.Failed != snapBefore.Failed {
		t.Fatalf("orphaned attempt changed stats: %+v then %+v", snapBefore, snapAfter)
	}
	if len(fut.ch) != 0 {
		t.Fatal("orphaned attempt resolved the future a second time")
	}
}

// TestBreakerLifecycleServing drives the serve-level breaker through
// closed → open → half-open → closed and checks the state is observable
// through Stats and the Prometheus exposition.
func TestBreakerLifecycleServing(t *testing.T) {
	ex := &flakyExec{maxBatch: 1, execMS: 0.5}
	ex.failing.Store(true)
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 1, LingerMS: 0.5, BreakerThreshold: 2, BreakerCooldownMS: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	submitWait := func() error {
		fut, err := s.Submit()
		if err != nil {
			return err
		}
		_, err = fut.Wait(ctx)
		return err
	}

	// Two consecutive batch failures trip the breaker.
	for i := 0; i < 2; i++ {
		if err := submitWait(); !errors.Is(err, errFlaky) {
			t.Fatalf("batch %d err = %v, want executor failure", i, err)
		}
	}
	if st := s.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", st)
	}
	// While open, batches fail fast without reaching the executor.
	calls := ex.calls.Load()
	if err := submitWait(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v during open window, want ErrBreakerOpen", err)
	}
	if ex.calls.Load() != calls {
		t.Fatal("open breaker let an attempt through to the executor")
	}
	snap := s.Stats()
	if snap.BreakerState != "open" || snap.BreakerTrips != 1 {
		t.Fatalf("snapshot breaker %q trips %d, want open/1", snap.BreakerState, snap.BreakerTrips)
	}

	// Heal, wait out the cooldown: the next batch is the half-open probe
	// and closes the breaker.
	ex.failing.Store(false)
	time.Sleep(30 * time.Millisecond)
	if err := submitWait(); err != nil {
		t.Fatalf("probe batch failed: %v", err)
	}
	if st := s.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for _, want := range []string{
		"pcnn_serve_breaker_state 0",
		"pcnn_serve_breaker_trips_total 1",
		"pcnn_serve_breaker_resets_total 1",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSoakConservation is the race-enabled soak: Poisson arrivals against
// a faulty executor (injected launch failures, slow batches, admission
// saturation, clock skew) while a sampler asserts the conservation
// invariant Submitted == Completed + Failed + QueueDepth on every
// concurrent snapshot.
func TestSoakConservation(t *testing.T) {
	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	ex := &flakyExec{maxBatch: 8, execMS: 0.2}
	inj := fault.MustNew(fault.Spec{
		Seed: 11, Launch: 0.05, Slow: 0.05, SlowFactor: 3, Saturate: 0.02, SkewMS: 1,
	})
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 2, LingerMS: 1, QueueCap: 256,
		MaxRetries: 1, RetryBaseMS: 0.1, BreakerThreshold: 8, BreakerCooldownMS: 10,
		Faults: inj, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	var violations atomic.Int64
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Stats()
			if snap.Submitted != snap.Completed+snap.Failed+uint64(snap.QueueDepth) {
				violations.Add(1)
				t.Errorf("conservation violated: submitted %d != completed %d + failed %d + queued %d",
					snap.Submitted, snap.Completed, snap.Failed, snap.QueueDepth)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	arr := workload.NewOpenArrivals(400, 7)
	deadline := time.Now().Add(duration)
	var futs []*Future
	var rejected int
	for time.Now().Before(deadline) {
		f, err := s.Submit()
		switch {
		case err == nil:
			futs = append(futs, f)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("submit: %v", err)
		}
		time.Sleep(arr.Next())
	}
	closeServer(t, s)
	close(stop)
	sampler.Wait()

	if violations.Load() > 0 {
		t.Fatalf("%d conservation violations during soak", violations.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil &&
			!errors.Is(err, errFlaky) && !errors.Is(err, ErrBreakerOpen) &&
			!errors.Is(err, fault.ErrInjected) {
			t.Fatalf("future %d: unexpected error %v", i, err)
		}
	}
	snap := s.Stats()
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", snap.QueueDepth)
	}
	if got := snap.Completed + snap.Failed; got != uint64(len(futs)) {
		t.Fatalf("resolved %d of %d accepted requests", got, len(futs))
	}
	if snap.Submitted < 10 {
		t.Fatalf("soak too idle: only %d submissions", snap.Submitted)
	}
	t.Logf("soak: %d submitted, %d completed, %d failed, %d rejected, faults %+v",
		snap.Submitted, snap.Completed, snap.Failed, rejected, s.FaultCounts())
}

// cleanExec is an allocation-free executor for the hot-path guard.
type cleanExec struct{}

func (cleanExec) MaxBatch() int              { return 4 }
func (cleanExec) Levels() int                { return 1 }
func (cleanExec) Entropy(int) float64        { return 0.1 }
func (cleanExec) PredictMS(_, n int) float64 { return float64(n) }
func (cleanExec) Execute(_, n int, _ *tensor.Tensor) (BatchResult, error) {
	return BatchResult{TimeMS: float64(n), EnergyJ: 0.1, Entropy: 0.1}, nil
}

// TestExecuteBatchCleanNoAllocs guards the acceptance criterion that the
// disabled hardening stack (nil injector, no breaker, no timeout, no
// retries) adds zero allocations to the executor hot path.
func TestExecuteBatchCleanNoAllocs(t *testing.T) {
	s, err := NewServer(cleanExec{}, satisfaction.ImageTagging(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	if n := testing.AllocsPerRun(500, func() {
		if _, err := s.executeBatch(0, 4, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disabled hardening path allocates %v per executeBatch", n)
	}
}

func BenchmarkExecuteBatchClean(b *testing.B) {
	s, err := NewServer(cleanExec{}, satisfaction.ImageTagging(), Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.executeBatch(0, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSubmitAccountingRace is the regression for the phantom queued
// request: with singleton batches and no linger a worker can resolve a
// request before its submitter runs again, so a count taken after the
// hand-off could land behind its own decrement. Conservation must hold on
// every concurrent snapshot, and the queue must read empty at quiescence —
// each round, not just at the end. Run with -race -cpu 1,2.
func TestSubmitAccountingRace(t *testing.T) {
	rounds := 4000
	if testing.Short() {
		rounds = 1000
	}
	ex := &fakeExec{maxBatch: 1, msPerImage: []float64{0.001}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 2, MaxBatch: 1, LingerMS: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	conserved := func(when string) {
		snap := s.Stats()
		if snap.Submitted != snap.Completed+snap.Failed+uint64(snap.QueueDepth) {
			t.Errorf("%s: submitted %d != completed %d + failed %d + queued %d",
				when, snap.Submitted, snap.Completed, snap.Failed, snap.QueueDepth)
		}
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				conserved("concurrent snapshot")
				time.Sleep(50 * time.Microsecond) // a snapshot sorts the latency sample
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < rounds && !t.Failed(); i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("round %d: submit: %v", i, err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("round %d: wait: %v", i, err)
		}
		// The only request ever outstanding has resolved.
		if d := s.st.queueDepth(); d != 0 {
			t.Fatalf("round %d: queue depth %d at quiescence, want 0", i, d)
		}
	}
	close(stop)
	sampler.Wait()
	closeServer(t, s)
	conserved("after close")
	if snap := s.Stats(); snap.Completed != uint64(rounds) || snap.QueueDepth != 0 {
		t.Fatalf("completed %d of %d, queue depth %d", snap.Completed, rounds, snap.QueueDepth)
	}
}
