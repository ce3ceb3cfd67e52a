package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

// fakeExec is a deterministic executor: per-level per-image cost and
// recorded entropy, no simulation.
type fakeExec struct {
	maxBatch   int
	msPerImage []float64
	entropies  []float64

	mu      sync.Mutex
	batches []batchRecord
}

type batchRecord struct{ level, n int }

func (f *fakeExec) MaxBatch() int              { return f.maxBatch }
func (f *fakeExec) Levels() int                { return len(f.msPerImage) }
func (f *fakeExec) Entropy(l int) float64      { return f.entropies[l] }
func (f *fakeExec) PredictMS(l, n int) float64 { return f.msPerImage[l] * float64(n) }

func (f *fakeExec) Execute(l, n int, _ *tensor.Tensor) (BatchResult, error) {
	f.mu.Lock()
	f.batches = append(f.batches, batchRecord{l, n})
	f.mu.Unlock()
	return BatchResult{
		TimeMS:  f.PredictMS(l, n),
		EnergyJ: 0.5 * float64(n),
		Entropy: f.entropies[l],
	}, nil
}

func (f *fakeExec) recorded() []batchRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]batchRecord(nil), f.batches...)
}

// waitAll resolves every future, failing the test on error or timeout.
func waitAll(t *testing.T, futs []*Future) []Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make([]Result, 0, len(futs))
	for i, f := range futs {
		r, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		out = append(out, r)
	}
	return out
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBatchCoalescing: a burst of background requests is served in
// batches, not one by one, and every future resolves.
func TestBatchCoalescing(t *testing.T) {
	ex := &fakeExec{maxBatch: 8, msPerImage: []float64{1}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	const n = 32
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	res := waitAll(t, futs)

	snap := s.Stats()
	if snap.Completed != n {
		t.Fatalf("completed = %d, want %d", snap.Completed, n)
	}
	if snap.Batches >= n {
		t.Errorf("no coalescing: %d batches for %d requests", snap.Batches, n)
	}
	for _, r := range res {
		if r.Batch < 1 || r.Batch > 8 {
			t.Errorf("request %d batch size %d out of [1,8]", r.ID, r.Batch)
		}
		if !r.DeadlineMet || r.SoC <= 0 {
			t.Errorf("background request %d: met=%v soc=%v", r.ID, r.DeadlineMet, r.SoC)
		}
	}
}

// TestSlackFlush: with a pressing deadline a lone request must not wait
// for the batch to fill.
func TestSlackFlush(t *testing.T) {
	ex := &fakeExec{maxBatch: 64, msPerImage: []float64{1}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(60), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	f, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	res := waitAll(t, []*Future{f})[0]
	if res.Batch != 1 {
		t.Errorf("lone request batched as %d", res.Batch)
	}
	// Slack is 16.7ms − 1ms predicted; the flush must happen around there,
	// far below the 1h it would take to fill a 64-batch at zero arrivals.
	if res.QueueMS > 1000 {
		t.Errorf("lone request waited %.1fms", res.QueueMS)
	}
}

// overloadRun drives a burst through a surveillance server and returns the
// final snapshot. The path crosses the entropy threshold at level 2, so
// base = 1 and escalation must trade accuracy for the deadline.
func overloadRun(t *testing.T, disableDegrade bool) Snapshot {
	t.Helper()
	ex := &fakeExec{
		maxBatch:   4,
		msPerImage: []float64{10, 6, 3, 1},
		entropies:  []float64{0.2, 0.3, 0.4, 0.5},
	}
	task := satisfaction.VideoSurveillance(60) // deadline ≈16.7ms, threshold 0.35
	s, err := NewServer(ex, task, Config{Workers: 1, RecoverAfter: 2, DisableDegrade: disableDegrade})
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	waitAll(t, futs)
	snap := s.Stats()
	closeServer(t, s)
	return snap
}

// TestOverloadDegradesVsControl is the acceptance comparison: under the
// same overload, the degrading server must miss strictly fewer deadlines
// than the no-degradation control.
func TestOverloadDegradesVsControl(t *testing.T) {
	degraded := overloadRun(t, false)
	control := overloadRun(t, true)

	if degraded.Escalations == 0 {
		t.Fatalf("degrading run never escalated: %+v", degraded)
	}
	if control.Escalations != 0 {
		t.Fatalf("control run escalated %d times", control.Escalations)
	}
	if control.DeadlineMissRate == 0 {
		t.Fatalf("control run missed nothing; overload not established")
	}
	if degraded.DeadlineMissRate >= control.DeadlineMissRate {
		t.Fatalf("degradation did not help: degraded miss %.3f, control miss %.3f",
			degraded.DeadlineMissRate, control.DeadlineMissRate)
	}
}

// TestCalibrationBacktrack: escalation past the entropy threshold must
// trigger the calibration backtrack, and the cooldown ceiling must keep
// the very next flush from re-entering the too-uncertain level.
func TestCalibrationBacktrack(t *testing.T) {
	snap := overloadRun(t, false)
	if snap.Calibrations == 0 {
		t.Fatalf("no calibration despite escalation past the threshold: %+v", snap)
	}
	// Every request was served; degradation never drops.
	if snap.Completed != snap.Submitted || snap.Rejected != 0 || snap.Failed != 0 {
		t.Fatalf("requests lost: %+v", snap)
	}
}

// TestControllerCeiling exercises the calibration ceiling directly: after
// a backtrack, escalation is capped until the cooldown expires.
func TestControllerCeiling(t *testing.T) {
	c := newController(4, 1, 2)
	always := func(int) bool { return false } // never fits: escalate to the cap
	if got := c.escalate(always); got != 3 {
		t.Fatalf("escalate to cap = %d, want 3", got)
	}
	c.observe(true, false) // entropy exceeded at 3 → backtrack to 2, ceiling 2
	if got := c.Level(); got != 2 {
		t.Fatalf("level after calibration = %d, want 2", got)
	}
	if got := c.escalate(always); got != 2 {
		t.Fatalf("escalation during cooldown reached %d, want ceiling 2", got)
	}
	c.observe(false, false) // cooldown 2→1
	c.observe(false, false) // cooldown 1→0: ceiling released
	if got := c.escalate(always); got != 3 {
		t.Fatalf("escalation after cooldown = %d, want 3", got)
	}
}

// TestQueueFullRejects: with a tiny queue and slow paced workers the
// admission control must reject rather than block.
func TestQueueFullRejects(t *testing.T) {
	ex := &fakeExec{maxBatch: 1, msPerImage: []float64{5}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 1, QueueCap: 2, Pace: 4, // each batch occupies ≈20ms wall
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	var accepted []*Future
	rejected := 0
	for i := 0; i < 64; i++ {
		f, err := s.Submit()
		switch {
		case err == nil:
			accepted = append(accepted, f)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatalf("no rejections with queue cap 2 under a 64-burst")
	}
	waitAll(t, accepted)
	if snap := s.Stats(); snap.Rejected == 0 || snap.Completed != uint64(len(accepted)) {
		t.Fatalf("stats disagree: %+v (accepted %d)", snap, len(accepted))
	}
}

// TestDrainOnClose: Close resolves every accepted future.
func TestDrainOnClose(t *testing.T) {
	ex := &fakeExec{maxBatch: 8, msPerImage: []float64{1}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, 0, 50)
	for i := 0; i < 50; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	closeServer(t, s)
	waitAll(t, futs)
	if _, err := s.Submit(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after Close = %v, want ErrServerClosed", err)
	}
}

// TestConcurrentSubmitShutdown is the -race stress test: many goroutines
// submit while the server shuts down; every accepted future must resolve
// and nothing may panic or deadlock.
func TestConcurrentSubmitShutdown(t *testing.T) {
	ex := &fakeExec{maxBatch: 4, msPerImage: []float64{1, 0.5}, entropies: []float64{0.1, 0.2}}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(30), Config{Workers: 3, QueueCap: 256})
	if err != nil {
		t.Fatal(err)
	}

	var accepted atomic.Int64
	var resolved atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f, err := s.Submit()
				if err != nil {
					if errors.Is(err, ErrServerClosed) {
						return
					}
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				if _, err := f.Wait(ctx); err == nil {
					resolved.Add(1)
				} else {
					t.Errorf("wait: %v", err)
					return
				}
			}
		}()
	}

	time.Sleep(30 * time.Millisecond)
	close(stop)
	closeServer(t, s)
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("stress accepted no requests")
	}
	if accepted.Load() != resolved.Load() {
		t.Fatalf("accepted %d but resolved %d", accepted.Load(), resolved.Load())
	}
}
