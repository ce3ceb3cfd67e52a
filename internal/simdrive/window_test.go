package simdrive

import (
	"context"
	"errors"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/tensor"
	"pcnn/internal/workload"
)

// stubExec costs msPerImage per request at its single level and fails
// every execution while fail is set.
type stubExec struct {
	msPerImage float64
	fail       bool
}

func (e *stubExec) MaxBatch() int              { return 4 }
func (e *stubExec) Levels() int                { return 1 }
func (e *stubExec) Entropy(int) float64        { return 0.1 }
func (e *stubExec) PredictMS(_, n int) float64 { return e.msPerImage * float64(n) }
func (e *stubExec) Execute(_, n int, _ *tensor.Tensor) (serve.BatchResult, error) {
	if e.fail {
		return serve.BatchResult{}, errors.New("stub launch failure")
	}
	return serve.BatchResult{TimeMS: e.PredictMS(0, n), EnergyJ: float64(n), Entropy: 0.1}, nil
}

const testMaxBatch = 4

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// harness is one ManualFlush server on a virtual clock with its window.
type harness struct {
	t   *testing.T
	ctx context.Context
	clk *workload.VirtualClock
	srv *serve.Server
	win *Window
}

func newHarness(t *testing.T, ex serve.Executor, task satisfaction.Task) *harness {
	t.Helper()
	clk := workload.NewVirtualClock(workload.Epoch())
	srv, err := serve.NewServer(ex, task, serve.Config{
		Workers: 1, MaxBatch: testMaxBatch, LingerMS: LingerMS, ManualFlush: true, Clock: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(func() {
		srv.Close(ctx)
		cancel()
	})
	return &harness{t: t, ctx: ctx, clk: clk, srv: srv,
		win: NewWindow(srv, ex, clk, testMaxBatch)}
}

// arrive submits one accepted request at offsetMS past the epoch and adds
// it to the window.
func (h *harness) arrive(offsetMS float64) (full bool) {
	h.t.Helper()
	at := workload.Epoch().Add(ms(offsetMS))
	h.clk.Set(at)
	f, err := h.srv.Submit()
	if err != nil {
		h.t.Fatal(err)
	}
	return h.win.add(at, f)
}

func (h *harness) flush() []Outcome {
	h.t.Helper()
	outs, err := h.win.flush(h.ctx)
	if err != nil {
		h.t.Fatal(err)
	}
	return outs
}

// sinceEpochMS reads an instant as milliseconds past the epoch.
func sinceEpochMS(t time.Time) float64 {
	return float64(t.Sub(workload.Epoch())) / float64(time.Millisecond)
}

// TestWindowHold pins the hold rule: the slack a full batch leaves at the
// current level, floored at zero and capped by the linger.
func TestWindowHold(t *testing.T) {
	cam := satisfaction.VideoSurveillance(10) // 100 ms deadline
	for _, tc := range []struct {
		name       string
		task       satisfaction.Task
		msPerImage float64
		wantHoldMS float64
	}{
		{"ample slack is capped by the linger", cam, 5, LingerMS},  // 100 − 20
		{"tight slack holds for exactly the slack", cam, 22.5, 10}, // 100 − 90
		{"negative slack closes at once", cam, 30, 0},              // 100 − 120
		{"no deadline holds for the linger", satisfaction.ImageTagging(), 30, LingerMS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, &stubExec{msPerImage: tc.msPerImage}, tc.task)
			if h.arrive(7) {
				t.Fatal("one arrival filled a 4-slot window")
			}
			if got := sinceEpochMS(h.win.closeAt); got != 7+tc.wantHoldMS {
				t.Errorf("window opened at 7 ms closes at %v ms, want %v", got, 7+tc.wantHoldMS)
			}
		})
	}
}

// TestWindowSlots pins what occupies a window slot. A caller that hands
// the window its refused arrivals (the scenario engine) lets them fill —
// and even open — a window; one that only adds accepted legs (the fleet
// soak) fills on accepted legs alone.
func TestWindowSlots(t *testing.T) {
	type arrival struct {
		atMS    float64
		refused bool
	}
	for _, tc := range []struct {
		name         string
		passRefusals bool
		arrivals     []arrival
		wantFullAt   int // index of the arrival that fills the window; -1 = never
		wantLegs     int
		wantCloseMS  float64
	}{
		{"refusals occupy slots", true,
			[]arrival{{0, false}, {1, true}, {2, true}, {3, false}}, 3, 2, 3},
		{"a refusal opens the window", true,
			[]arrival{{5, true}, {6, false}}, -1, 1, 5 + LingerMS},
		{"a window of refusals still closes and flushes empty", true,
			[]arrival{{0, true}, {0, true}, {1, true}, {1, true}}, 3, 0, 1},
		{"skipped refusals leave the slots to accepted legs", false,
			[]arrival{{0, false}, {1, true}, {2, true}, {3, false}, {4, false}, {5, false}}, 5, 4, 5},
		{"a skipped refusal opens nothing", false,
			[]arrival{{5, true}, {6, false}}, -1, 1, 6 + LingerMS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, &stubExec{msPerImage: 1}, satisfaction.ImageTagging())
			fullAt := -1
			for i, a := range tc.arrivals {
				if fullAt >= 0 {
					t.Fatalf("arrival %d follows the fill at %d; the case is malformed", i, fullAt)
				}
				full := false
				switch {
				case !a.refused:
					full = h.arrive(a.atMS)
				case tc.passRefusals:
					full = h.win.add(workload.Epoch().Add(ms(a.atMS)), nil)
				}
				if full {
					fullAt = i
				}
			}
			if fullAt != tc.wantFullAt {
				t.Errorf("window filled at arrival %d, want %d", fullAt, tc.wantFullAt)
			}
			if !h.win.open() {
				t.Fatal("no window open after the arrivals")
			}
			if got := sinceEpochMS(h.win.closeAt); got != tc.wantCloseMS {
				t.Errorf("window closes at %v ms, want %v", got, tc.wantCloseMS)
			}
			outs := h.flush()
			if len(outs) != tc.wantLegs {
				t.Errorf("flush returned %d legs, want %d", len(outs), tc.wantLegs)
			}
			if h.win.open() {
				t.Error("window still open after flush")
			}
			if got, want := h.srv.Stats().Completed, uint64(tc.wantLegs); got != want {
				t.Errorf("server completed %d requests, want %d", got, want)
			}
		})
	}
}

// TestWindowFlushTiming pins the execution instant and the busy horizon:
// a window opened while the worker is busy closes no earlier than the
// horizon, a batch starts at max(window close, worker free), a served
// batch occupies the worker for its own execution time, a failed batch for
// the full-batch price the window opened under (not its actual size at the
// current level), and every flush declares the new horizon to the server,
// which reports what remains of it.
func TestWindowFlushTiming(t *testing.T) {
	ex := &stubExec{msPerImage: 10}
	h := newHarness(t, ex, satisfaction.ImageTagging())
	// declared checks the horizon the server sees right after a flush.
	declared := func(wantMS float64) {
		t.Helper()
		if got := h.srv.Predict(0).BusyMS; got != wantMS {
			t.Errorf("server sees a %v ms busy horizon after the flush, want %v", got, wantMS)
		}
	}

	// Idle worker: the lone request executes when its window closes.
	h.arrive(0)
	outs := h.flush()
	if len(outs) != 1 || outs[0].Err != nil {
		t.Fatalf("first window: outcomes %+v", outs)
	}
	if got := outs[0].Res.QueueMS; got != LingerMS {
		t.Errorf("first batch queued %v ms, want the %v ms linger", got, float64(LingerMS))
	}
	if got := sinceEpochMS(h.win.BusyUntil()); got != LingerMS+10 {
		t.Errorf("busy until %v ms after a 10 ms batch started at 20, want 30", got)
	}
	declared(10) // the clock sits at the 20 ms execution instant

	// Busy worker: a window that fills at 21 ms waits for the worker (30).
	for i := 0; i < testMaxBatch; i++ {
		if full := h.arrive(21); full != (i == testMaxBatch-1) {
			t.Fatalf("arrival %d: full = %v", i, full)
		}
	}
	outs = h.flush()
	for i, o := range outs {
		if o.Err != nil || o.Res.QueueMS != 9 || o.Res.Batch != testMaxBatch {
			t.Errorf("second window leg %d: %+v, want queue 9 ms in a batch of 4", i, o)
		}
	}
	if got := sinceEpochMS(h.win.BusyUntil()); got != 30+40 {
		t.Errorf("busy until %v ms after a 40 ms batch started at 30, want 70", got)
	}
	declared(40)

	// A window opened at 45 ms would hold until 65, but the worker is busy
	// until 70: it stays open to the horizon, and a 69 ms arrival rides it.
	h.arrive(45)
	if got := sinceEpochMS(h.win.closeAt); got != 70 {
		t.Errorf("window opened at 45 ms while busy until 70 closes at %v ms, want 70", got)
	}
	h.arrive(69)
	outs = h.flush()
	if len(outs) != 2 || outs[0].Res.Batch != 2 || outs[0].Res.QueueMS != 25 {
		t.Errorf("busy-spell window: outcomes %+v, want a batch of 2, head queued 25 ms", outs)
	}
	if got := sinceEpochMS(h.win.BusyUntil()); got != 70+20 {
		t.Errorf("busy until %v ms after a 20 ms batch started at 70, want 90", got)
	}
	declared(20)

	// Failed batch of one, long after the worker freed: priced at the
	// 4-request prediction the window opened under.
	ex.fail = true
	h.arrive(200)
	outs = h.flush()
	if len(outs) != 1 || outs[0].Err == nil {
		t.Fatalf("failed window: outcomes %+v, want one failed leg", outs)
	}
	if got := sinceEpochMS(h.win.BusyUntil()); got != 200+LingerMS+40 {
		t.Errorf("busy until %v ms after a failed batch started at 220, want 260 (full-batch price)", got)
	}
	declared(40)
}
