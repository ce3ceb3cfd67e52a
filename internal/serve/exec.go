package serve

import (
	"time"

	"pcnn/internal/gpu"
	"pcnn/internal/tensor"
)

// executeBatch is the hardened execution path one worker drives for one
// flushed batch: every attempt first clears the circuit breaker, then
// runs under the per-attempt timeout; failures feed the breaker and are
// retried up to MaxRetries times with exponential backoff and jitter.
// With no injector, no timeout, no retries and no breaker configured this
// degenerates to exactly one Execute call with no extra allocations.
func (s *Server) executeBatch(level, n int, inputs *tensor.Tensor) (BatchResult, error) {
	for attempt := 0; ; attempt++ {
		if !s.brk.allow() {
			return BatchResult{}, ErrBreakerOpen
		}
		res, err := s.executeOnce(level, n, inputs)
		if err == nil {
			s.brk.success()
			if nats := s.faults.CorruptNats(); nats > 0 {
				corruptResult(&res, nats)
			}
			return res, nil
		}
		s.brk.failure()
		if attempt >= s.cfg.MaxRetries {
			return BatchResult{}, err
		}
		s.st.retryInc()
		time.Sleep(s.backoff(attempt))
	}
}

// executeOnce runs a single attempt: an injected launch fault fails it
// before the executor runs (typed like a real gpu launch failure), a slow
// fault stretches the result's simulated cost, and the configured timeout
// bounds the executor's wall-clock time.
func (s *Server) executeOnce(level, n int, inputs *tensor.Tensor) (BatchResult, error) {
	if err := s.faults.LaunchError(); err != nil {
		return BatchResult{}, &gpu.LaunchError{Kernel: "serve.batch", Injected: true, Err: err}
	}
	res, err := s.executeTimed(level, n, inputs)
	if err != nil {
		return BatchResult{}, err
	}
	if f := s.faults.SlowFactor(); f > 1 {
		res.TimeMS *= f
		res.EnergyJ *= f
	}
	return res, nil
}

// executeTimed bounds one executor call by the configured wall-clock
// timeout. A timed-out attempt's goroutine is orphaned — it finishes into
// a buffered channel and is discarded; it never touches futures or stats,
// so a late completion cannot resolve anything after drain.
func (s *Server) executeTimed(level, n int, inputs *tensor.Tensor) (BatchResult, error) {
	if s.cfg.ExecTimeoutMS <= 0 {
		return s.ex.Execute(level, n, inputs)
	}
	type attempt struct {
		res BatchResult
		err error
	}
	ch := make(chan attempt, 1)
	go func() {
		res, err := s.ex.Execute(level, n, inputs)
		ch <- attempt{res, err}
	}()
	timer := time.NewTimer(time.Duration(s.cfg.ExecTimeoutMS * float64(time.Millisecond)))
	defer timer.Stop()
	select {
	case a := <-ch:
		return a.res, a.err
	case <-timer.C:
		s.st.timeoutInc()
		return BatchResult{}, ErrExecTimeout
	}
}

// backoff returns the sleep before retry number attempt+1: base·2^attempt
// milliseconds scaled by a uniform jitter in [0.5, 1.5), drawn from the
// server's seeded stream so chaos runs replay identically.
func (s *Server) backoff(attempt int) time.Duration {
	ms := s.cfg.RetryBaseMS * float64(int(1)<<min(attempt, 20))
	s.retryMu.Lock()
	jitter := 0.5 + s.retryRng.Float64()
	s.retryMu.Unlock()
	return time.Duration(ms * jitter * float64(time.Millisecond))
}

// corruptResult applies an injected output corruption: softmax rows
// flatten to uniform (maximum per-row uncertainty) and the batch entropy
// is boosted by nats — exactly the signal that must push the measured
// entropy over the task threshold and trigger a calibration backtrack.
func corruptResult(res *BatchResult, nats float64) {
	res.Entropy += nats
	for _, row := range res.Probs {
		if len(row) == 0 {
			continue
		}
		u := 1 / float32(len(row))
		for i := range row {
			row[i] = u
		}
	}
}
