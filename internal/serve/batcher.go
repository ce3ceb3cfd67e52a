package serve

import (
	"math"
	"time"

	"pcnn/internal/tensor"
)

// batcherTimer is the flush-deadline timer seam. flushTimer is the
// production implementation; tests inject a hand-fired fake to pin the
// flush-vs-submit interleavings (stale fires, premature fires) without
// wall-clock races.
type batcherTimer interface {
	// arm schedules a fire after d, replacing any earlier schedule.
	arm(d time.Duration)
	// disarm cancels the schedule; ch goes nil so a select never fires.
	disarm()
	// fired acknowledges a receive from ch before the next arm.
	fired()
	// ch is the fire channel; nil while disarmed.
	ch() <-chan time.Time
}

// flushTimer wraps one reusable time.Timer for the batcher's flush
// deadline. The previous implementation allocated a fresh time.NewTimer
// on every submitted request — per-request timer churn on the hot
// admission path; this one Stops, drains and Resets a single timer. C is
// non-nil only while armed; after receiving from C the owner must call
// fired before the next arm.
type flushTimer struct {
	t *time.Timer
	C <-chan time.Time
}

// arm schedules the timer to fire after d (negative d clamps to 0).
func (ft *flushTimer) arm(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if ft.t == nil {
		ft.t = time.NewTimer(d)
	} else {
		ft.stopDrain()
		ft.t.Reset(d)
	}
	ft.C = ft.t.C
}

// disarm stops the timer; C goes nil so a pending select never fires.
func (ft *flushTimer) disarm() {
	if ft.t != nil {
		ft.stopDrain()
	}
	ft.C = nil
}

// fired acknowledges a receive from C: the channel is already drained, so
// the next arm must not try to drain it again via a blocked Stop.
func (ft *flushTimer) fired() { ft.C = nil }

// ch implements batcherTimer.
func (ft *flushTimer) ch() <-chan time.Time { return ft.C }

// stopDrain is the correct stop/drain sequence for a timer that may have
// fired but not been received from.
func (ft *flushTimer) stopDrain() {
	if !ft.t.Stop() {
		select {
		case <-ft.t.C:
		default:
		}
	}
}

// batcher is the coalescing loop: it drains admitted requests into the
// pending FIFO, forms batches of up to MaxBatch in admission order, and
// hands them to the worker pool when the batch fills or the head's slack
// (deadline − Eq 12 prediction) runs out. Backpressure is natural: when
// every worker is busy the flush send blocks, the admission queue fills,
// and Submit starts rejecting.
//
// A timer fire is a *hint*, not a command: the delay it was armed with
// described an older pending set, and requests admitted since (or a level
// change) may have moved the due instant. The loop therefore re-derives
// flushDelay on fire and re-arms instead of flushing when the batch is
// not actually due — the fix for the stale-fire edge where a fire racing
// a submit flushed a batch whose window had not closed.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	defer close(s.flushCh)

	q := &fifo{}
	ft := s.newBatcherTimer()

	for {
		select {
		case r, ok := <-s.submitCh:
			if !ok {
				ft.disarm()
				s.flushAll(q)
				return
			}
			q.push(r)
			// Absorb any burst already admitted before deciding, so batch
			// formation sees the whole backlog rather than one arrival per
			// loop turn.
			s.drainSubmitted(q)
			if s.cfg.ManualFlush {
				continue // only Flush (or close-drain) flushes
			}
			for q.len() >= s.cfg.MaxBatch {
				ft.disarm()
				s.flushNext(q)
			}
			s.rearm(ft, q)
		case done := <-s.flushReqCh:
			// Drain everything already admitted (sitting in the buffered
			// submit channel) first, so a Flush issued after N completed
			// Submits flushes exactly those N.
			s.drainSubmitted(q)
			ft.disarm()
			n := q.len()
			s.flushAll(q)
			done <- n
		case <-ft.ch():
			ft.fired()
			if q.len() == 0 {
				continue
			}
			if d := s.flushDelay(q); d > 0 {
				ft.arm(d) // stale fire: the due instant moved; not yet due
				continue
			}
			s.flushNext(q)
			s.rearm(ft, q)
		}
	}
}

// newBatcherTimer returns the injected test timer when one is set, else
// the reusable production timer.
func (s *Server) newBatcherTimer() batcherTimer {
	if s.timerHook != nil {
		return s.timerHook()
	}
	return &flushTimer{}
}

// rearm schedules the next autonomous flush for whatever remains pending,
// or disarms when nothing is pending.
func (s *Server) rearm(ft batcherTimer, q *fifo) {
	if q.len() == 0 {
		ft.disarm()
		return
	}
	ft.arm(s.flushDelay(q))
}

// drainSubmitted moves every request buffered in the admission queue into
// the pending FIFO without blocking.
func (s *Server) drainSubmitted(q *fifo) {
	for {
		select {
		case r, ok := <-s.submitCh:
			if !ok {
				return // closed: the main loop's next receive handles exit
			}
			q.push(r)
		default:
			return
		}
	}
}

// flushNext forms and flushes one batch: the first MaxBatch pending
// requests in admission order.
func (s *Server) flushNext(q *fifo) {
	s.flush(q.take(s.cfg.MaxBatch))
}

// flushAll drains the pending FIFO completely, one batch at a time, so an
// over-full manual backlog (or a close-drain) still respects the batch
// cap.
func (s *Server) flushAll(q *fifo) {
	for q.len() > 0 {
		s.flushNext(q)
	}
}

// flushDelay returns how much longer the batcher may hold the pending
// batch as a timer duration (≤ 0 means due now).
func (s *Server) flushDelay(q *fifo) time.Duration {
	d := s.flushDelayMS(q)
	if d <= 0 {
		return 0
	}
	return time.Duration(d * float64(time.Millisecond))
}

// slackGuardFrac is the batching policy's safety margin as a fraction of
// the predicted completion time. The Eq 12 estimate trails the simulated
// execution by a few percent; flushing exactly at slack zero therefore
// converts that gap into a deadline miss on every boundary flush. Holding
// the batch only while slack exceeds the guard lands responses just
// inside the deadline instead of just outside it.
const slackGuardFrac = 0.1

// flushDelayMS is the batching policy: the head's remaining slack — the
// task deadline against the Eq 12 prediction for the batch about to form,
// less the safety guard — capped by the linger window from its arrival,
// so tasks with lazy deadlines (or none at all) still flush promptly.
func (s *Server) flushDelayMS(q *fifo) float64 {
	waited := s.sinceMS(q.oldest().at)
	linger := s.cfg.LingerMS - waited
	n := q.len()
	if n > s.cfg.MaxBatch {
		n = s.cfg.MaxBatch
	}
	pred := s.queuePredictMS(s.ctrl.Level(), n)
	slack := s.task.SlackMS(waited, pred) - slackGuardFrac*pred
	if slack < linger {
		return slack
	}
	return linger
}

// queuePredictMS estimates how long a flush of n requests will take to
// finish at an operating point: any externally-declared worker occupancy,
// plus the batches already in flight ahead of it (spread over the worker
// pool), plus its own predicted execution time.
func (s *Server) queuePredictMS(level, n int) float64 {
	ahead := s.busyMS() + float64(s.inflight.Load())*s.ex.PredictMS(level, s.cfg.MaxBatch)/float64(s.cfg.Workers)
	return ahead + s.ex.PredictMS(level, n)
}

// flush hands one batch to the worker pool, escalating the perforation
// level first if the tightest request's slack has gone negative (graceful
// degradation instead of dropping).
func (s *Server) flush(reqs []*request) {
	n := len(reqs)
	for _, r := range reqs {
		r.tr.Mark("coalesce")
	}
	level := s.ctrl.Level()
	if !s.cfg.DisableDegrade {
		level = s.ctrl.escalate(func(l int) bool {
			pred := s.queuePredictMS(l, n)
			guard := slackGuardFrac * pred
			for _, r := range reqs {
				if s.task.SlackMS(s.sinceMS(r.at), pred) < guard {
					return false
				}
			}
			return true
		})
	}
	for _, r := range reqs {
		r.tr.Mark("escalate")
	}
	s.inflight.Add(1)
	s.flushCh <- &batchJob{reqs: reqs, level: level}
}

// worker executes flushed batches until the batcher closes the channel.
func (s *Server) worker() {
	defer s.workers.Done()
	for job := range s.flushCh {
		s.runBatch(job)
	}
}

// gatherInputs assembles the batch input tensor when every request
// carries a sample. It returns (nil, false) when no request carries one
// (a deliberate simulation-only batch), and (nil, true) — a *demotion* —
// when samples were present but unusable: some requests missing theirs,
// or heterogeneous shapes that cannot stack into one N×C×H×W tensor.
// Demotions silently discard the operator's classification work, so the
// caller counts and surfaces them.
func gatherInputs(reqs []*request) (batch *tensor.Tensor, demoted bool) {
	withInput := 0
	for _, r := range reqs {
		if r.input != nil {
			withInput++
		}
	}
	if withInput == 0 {
		return nil, false
	}
	if withInput < len(reqs) {
		return nil, true // mixed nil/sample batch cannot classify everyone
	}
	shape := reqs[0].input.Shape()
	per := reqs[0].input.Len()
	for _, r := range reqs {
		if r.input.Len() != per {
			return nil, true // heterogeneous sample shapes
		}
	}
	batch = tensor.New(append([]int{len(reqs)}, shape...)...)
	for i, r := range reqs {
		copy(batch.Data[i*per:(i+1)*per], r.input.Data)
	}
	return batch, false
}

// runBatch executes one batch, feeds the entropy/slack signals back into
// the controller, and resolves the batch's futures — in that order. The
// completion contract: a resolved future implies its batch is fully
// accounted (Stats, metrics — not the trace ring) and the controller has
// observed it, so a driver that waited on a batch's futures reads the next
// Level() and Stats() deterministically without polling. The futures are
// buffered and never block the worker. Execution runs through the
// hardening stack — circuit breaker, per-attempt timeout, bounded retry
// with backoff — and only this worker resolves the batch's futures, which
// is what keeps drain-on-Close exact: Close waits for the workers, and no
// orphaned attempt can resolve anything after that.
func (s *Server) runBatch(job *batchJob) {
	n := len(job.reqs)
	start := s.stamp()
	inputs, demoted := gatherInputs(job.reqs)
	if demoted {
		s.st.demotedInc()
	}
	res, err := s.executeBatch(job.level, n, inputs)
	if s.cfg.Pace > 0 && err == nil {
		time.Sleep(time.Duration(res.TimeMS * s.cfg.Pace * float64(time.Millisecond)))
	}
	s.inflight.Add(-1)
	if err != nil {
		s.st.failBatch(n)
		s.resolve(job, demoted, nil, err)
		return
	}
	// The batch-size histogram moves with the executed-batch tally (both
	// count successful flushes only), so MeanBatch and the histogram agree
	// on the same population.
	s.met.observeBatch(job.level, n)

	perImageJ := res.EnergyJ / float64(n)
	deadline := s.task.Deadline()
	comfortable := !math.IsInf(deadline, 1)
	outs := make([]Result, n)
	for i, r := range job.reqs {
		queueMS := float64(start.Sub(r.at)) / float64(time.Millisecond)
		if queueMS < 0 {
			queueMS = 0
		}
		responseMS := queueMS + res.TimeMS
		if responseMS > 0.5*deadline {
			comfortable = false
		}
		out := Result{
			ID:              r.id,
			Batch:           n,
			Level:           job.level,
			QueueMS:         queueMS,
			ExecMS:          res.TimeMS,
			ResponseMS:      responseMS,
			EnergyPerImageJ: perImageJ,
			Entropy:         res.Entropy,
			SoC:             s.task.SoC(responseMS, res.Entropy, perImageJ),
			DeadlineMet:     responseMS <= deadline,
		}
		if res.Probs != nil && i < len(res.Probs) {
			out.Probs = res.Probs[i]
		}
		r.tr.Mark("execute")
		s.st.record(out)
		s.met.observeResponse(job.level, responseMS)
		outs[i] = out
	}

	// Comfortable means every request in the batch finished inside half
	// the deadline; a deadline-free task never eases an escalated level
	// back down.
	thr := s.task.EntropyThreshold
	s.ctrl.observe(res.Entropy > thr, res.Entropy <= calmFrac*thr, comfortable)
	s.st.batchDone(n)

	s.resolve(job, demoted, outs, nil)
}

// resolve closes the batch's traces, then resolves its futures — last:
// everything before this call is what a resolved future promises. The
// traces' final clock reads come before any future resolves because a
// virtual-time driver may move the clock the moment it wakes; parking the
// finished traces (stage histograms, the ring) reads no clock and is not
// part of the promise, so it overlaps with the waiter waking up.
func (s *Server) resolve(job *batchJob, demoted bool, outs []Result, err error) {
	for _, r := range job.reqs {
		tr := &r.tr
		if len(tr.Stages) > 0 && tr.Stages[len(tr.Stages)-1].Name != "execute" {
			tr.Mark("execute") // failed batches still close the execute stage
		}
		tr.Mark("resolve")
		tr.Batch, tr.Level, tr.Demoted = len(job.reqs), job.level, demoted
		if err != nil {
			tr.Err = err.Error()
		}
	}
	for i, r := range job.reqs {
		o := outcome{err: err}
		if err == nil {
			o.res = outs[i]
		}
		r.fut.ch <- o
		s.met.observeStages(&r.tr)
		s.traces.Add(&r.tr)
	}
}
