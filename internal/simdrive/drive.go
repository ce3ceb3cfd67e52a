package simdrive

import (
	"context"
	"slices"
	"time"

	"pcnn/internal/workload"
)

// Slot is one arrival's place in a window: the leg it adds, or a nil Leg
// for an arrival admission refused that still occupies the slot.
type Slot struct {
	Win *Window
	Leg Leg
}

// Drive is the one virtual-clock event loop. For each event of sched, in
// order, it first flushes every open window whose close is strictly
// before the arrival instant t (earliest first, ties in the order Drive
// first saw the windows), then sets clk to t and asks arrive for the
// arrival's slots. It adds each slot to its window in order and flushes a
// window the moment a slot fills it, so a hedged request's second leg is
// added after its first leg's full window has flushed. Once sched is
// spent it drains the windows still open, earliest first. Every flush's
// outcomes go to flushed before the next add. arrive may return a reused
// slice: Drive consumes it before calling arrive again.
func Drive(ctx context.Context, clk *workload.VirtualClock, sched *workload.ScheduleStream,
	arrive func(t time.Time, ev workload.Event) ([]Slot, error), flushed func([]Outcome)) error {

	var wins []*Window // first-seen order
	flush := func(w *Window) error {
		outs, err := w.flush(ctx)
		if err != nil {
			return err
		}
		flushed(outs)
		return nil
	}
	// flushBefore flushes, earliest first, every open window closing
	// before t; the zero t drains them all.
	flushBefore := func(t time.Time) error {
		for {
			var due *Window
			for _, w := range wins {
				if w.open() && (due == nil || w.closeAt.Before(due.closeAt)) {
					due = w
				}
			}
			if due == nil || (!t.IsZero() && !t.After(due.closeAt)) {
				return nil
			}
			if err := flush(due); err != nil {
				return err
			}
		}
	}

	for ev, ok := sched.Next(); ok; ev, ok = sched.Next() {
		t := workload.Epoch().Add(ev.At)
		if err := flushBefore(t); err != nil {
			return err
		}
		clk.Set(t)
		slots, err := arrive(t, ev)
		if err != nil {
			return err
		}
		for _, s := range slots {
			if !s.Win.open() && !slices.Contains(wins, s.Win) { // an open window is listed already
				wins = append(wins, s.Win)
			}
			if s.Win.add(t, s.Leg) {
				if err := flush(s.Win); err != nil {
					return err
				}
			}
		}
	}
	return flushBefore(time.Time{})
}
