// Package simdrive holds the one virtual-clock driver the deterministic
// generators (the scenario engine and its serve grid, the fleet soak)
// share: the batch-window algorithm they replay against a ManualFlush
// serve.Server, and Drive, the one event loop that moves arrivals and
// flushes through those windows. It contains no wall-clock reads or
// sleeps — time only moves when the driver moves it.
package simdrive

import (
	"context"
	"fmt"
	"time"

	"pcnn/internal/serve"
	"pcnn/internal/workload"
)

// LingerMS caps how long every driver's window holds a partial batch, and
// is the linger its servers are configured with.
const LingerMS = 20

// Leg is one accepted request riding a window: a *serve.Future, or a
// fleet ticket wrapping one.
type Leg interface {
	Wait(ctx context.Context) (serve.Result, error)
}

// Outcome is one flushed leg and what its batch resolved it to.
type Outcome struct {
	Leg Leg
	Res serve.Result
	Err error
}

// Window composes one server's batches the way the autonomous batcher
// would have, on the driver's clock: a window opens on an arrival, holds
// for the slack a full batch leaves at the current degradation level
// (capped by the linger) but never closes before the server's single
// worker frees up — arrivals during a busy spell join the batch, so a
// backlog grows it — and closes early when it fills. A flush declares the
// worker's busy horizon to the server, so admission and routing
// predictions see the backlog. Drive is the only caller of add and flush:
// the server must run with ManualFlush and one worker on the same clock.
type Window struct {
	srv      *serve.Server
	ex       serve.Executor
	clk      *workload.VirtualClock
	maxBatch int

	closeAt time.Time
	predMS  float64 // Eq 12 price of a full batch at the level the window opened under
	slots   int     // arrivals riding the window, accepted or not
	legs    []Outcome
	busy    time.Time // the worker's busy horizon; zero until the first flush
}

// NewWindow wraps a server for window-at-a-time driving. ex is the
// server's own executor; maxBatch is how many arrivals fill a window and
// must not exceed the server's batch cap, so every window flushes as one
// batch.
func NewWindow(srv *serve.Server, ex serve.Executor, clk *workload.VirtualClock, maxBatch int) *Window {
	return &Window{srv: srv, ex: ex, clk: clk, maxBatch: maxBatch}
}

// open reports whether a window is open: add was called since the last
// flush. closeAt is then when it closes; arrivals at or before it ride
// the window, the first one after it must flush first.
func (w *Window) open() bool { return w.slots > 0 }

// BusyUntil is the worker's busy horizon after the last flush (the zero
// time before any).
func (w *Window) BusyUntil() time.Time { return w.busy }

// add places the arrival at t in the window, opening one on it when none
// is open. leg is the accepted request, or nil when admission refused the
// arrival: a caller that passes refusals lets them occupy a slot (and open
// a window), one that skips them counts accepted legs only. It reports
// whether the arrival filled the window, which then closes at t and must
// be flushed before the next add.
func (w *Window) add(t time.Time, leg Leg) (full bool) {
	if w.slots == 0 {
		w.predMS = w.ex.PredictMS(w.srv.Level(), w.maxBatch)
		hold := w.srv.Task().SlackMS(0, w.predMS)
		if hold < 0 {
			hold = 0
		}
		if hold > LingerMS { // deadline-free tasks have +Inf slack
			hold = LingerMS
		}
		w.closeAt = t.Add(time.Duration(hold * float64(time.Millisecond)))
		if w.busy.After(w.closeAt) {
			w.closeAt = w.busy
		}
	}
	w.slots++
	if leg != nil {
		w.legs = append(w.legs, Outcome{Leg: leg})
	}
	if w.slots >= w.maxBatch {
		w.closeAt = t
		return true
	}
	return false
}

// flush executes the open window: it moves the clock to the execution
// instant, flushes the server, waits the batch's legs, advances the busy
// horizon by the batch's simulated execution time — a failed batch still
// occupied the worker, for the full-batch price the window opened under —
// and declares that horizon to the server (SetBusyUntil): the driver
// resolves batches at once in wall-clock terms, so without it the backlog
// would be invisible to admission and completion prediction. serve's
// completion contract makes the waits sufficient: once they return, the
// next Level() and Stats() reads are deterministic. The returned outcomes
// are the window's accepted legs in admission order; the slice is reused
// by the next window, so consume it before the next add.
func (w *Window) flush(ctx context.Context) ([]Outcome, error) {
	execStart := w.closeAt
	if w.busy.After(execStart) {
		execStart = w.busy
	}
	w.clk.Set(execStart)
	if moved := w.srv.Flush(); moved != len(w.legs) {
		return nil, fmt.Errorf("flush moved %d of %d pending requests", moved, len(w.legs))
	}
	busyMS := 0.0
	failed := false
	for i := range w.legs {
		o := &w.legs[i]
		if o.Res, o.Err = o.Leg.Wait(ctx); o.Err != nil {
			failed = true
			continue
		}
		busyMS = o.Res.ExecMS
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("waiting for flushed batch: %w", err) // the hang bound, not a failed batch
	}
	if failed && busyMS == 0 {
		busyMS = w.predMS
	}
	w.busy = execStart.Add(time.Duration(busyMS * float64(time.Millisecond)))
	w.srv.SetBusyUntil(w.busy)
	outs := w.legs
	w.slots, w.legs = 0, w.legs[:0]
	return outs, nil
}
