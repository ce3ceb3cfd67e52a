package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pcnn/internal/obs"
	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
	"pcnn/internal/workload"
)

// vclock is a settable clock for virtual-time serving tests.
type vclock struct{ t time.Time }

func (c *vclock) now() time.Time { return c.t }
func (c *vclock) set(ms float64) { c.t = epoch().Add(time.Duration(ms * float64(time.Millisecond))) }
func epoch() time.Time           { return time.Unix(1_700_000_000, 0) }

// manualExec is a fixed-cost executor for virtual-time tests.
type manualExec struct{}

func (manualExec) MaxBatch() int              { return 4 }
func (manualExec) Levels() int                { return 2 }
func (manualExec) Entropy(int) float64        { return 0.1 }
func (manualExec) PredictMS(l, n int) float64 { return 5 * float64(n) }
func (manualExec) Execute(l, n int, _ *tensor.Tensor) (BatchResult, error) {
	return BatchResult{TimeMS: 5 * float64(n), EnergyJ: 0.01 * float64(n), Entropy: 0.1}, nil
}

// TestManualFlushVirtualClock pins the virtual-time contract the scenario
// engine depends on: with ManualFlush and an injected clock, requests are
// stamped at the clock value current at Submit, the batch executes at the
// clock value current at Flush, and QueueMS/ResponseMS are exact virtual
// quantities with no wall-clock contribution.
func TestManualFlushVirtualClock(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	s, err := NewServer(manualExec{}, satisfaction.AgeDetection(), Config{
		Workers: 1, MaxBatch: 4, QueueCap: 16,
		ManualFlush: true, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Three requests arriving at virtual t = 0, 10, 25 ms.
	arrive := []float64{0, 10, 25}
	futs := make([]*Future, len(arrive))
	for i, at := range arrive {
		clk.set(at)
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		futs[i] = f
	}

	// Nothing may execute before Flush, however long we wait.
	time.Sleep(20 * time.Millisecond)
	if got := s.Stats().Batches; got != 0 {
		t.Fatalf("batcher flushed %d batches before Flush", got)
	}

	// The batch executes at virtual t = 40 ms.
	clk.set(40)
	if n := s.Flush(); n != 3 {
		t.Fatalf("Flush moved %d requests, want 3", n)
	}
	for i, f := range futs {
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		wantQueue := 40 - arrive[i]
		if res.QueueMS != wantQueue {
			t.Errorf("request %d QueueMS = %v, want exactly %v", i, res.QueueMS, wantQueue)
		}
		if want := wantQueue + 15; res.ResponseMS != want {
			t.Errorf("request %d ResponseMS = %v, want exactly %v", i, res.ResponseMS, want)
		}
		if res.Batch != 3 {
			t.Errorf("request %d batch = %d, want 3", i, res.Batch)
		}
	}
	closeServer(t, s)
	// Flush after close is a no-op, not a hang.
	if n := s.Flush(); n != 0 {
		t.Errorf("Flush after close moved %d requests", n)
	}
}

// TestManualFlushChunksToMaxBatch: a manual flush larger than MaxBatch is
// split into admission-order chunks of at most MaxBatch.
func TestManualFlushChunksToMaxBatch(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	s, err := NewServer(manualExec{}, satisfaction.ImageTagging(), Config{
		Workers: 1, MaxBatch: 4, QueueCap: 16,
		ManualFlush: true, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var futs []*Future
	for i := 0; i < 10; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if n := s.Flush(); n != 10 {
		t.Fatalf("Flush moved %d, want 10", n)
	}
	sizes := map[int]int{}
	for _, f := range futs {
		res, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sizes[res.Batch]++
	}
	// 10 requests at cap 4 → batches of 4, 4, 2.
	if sizes[4] != 8 || sizes[2] != 2 {
		t.Fatalf("batch sizes %v, want 8 requests in 4s and 2 in a 2", sizes)
	}
	closeServer(t, s)
}

// clockedExec is manualExec on a virtual clock: executing a batch moves the
// clock forward by the batch's simulated time, the way a virtual-time driver
// accounts for it.
type clockedExec struct {
	manualExec
	clk *workload.VirtualClock
}

func (e clockedExec) Execute(l, n int, x *tensor.Tensor) (BatchResult, error) {
	res, err := e.manualExec.Execute(l, n, x)
	e.clk.Set(e.clk.Now().Add(time.Duration(res.TimeMS * float64(time.Millisecond))))
	return res, err
}

// TestTraceOnInjectedClock: request traces read the server's clock, not
// the wall clock. Three requests arrive at virtual t = 0, 3 and 10 ms, the
// batch flushes at 17 ms and executes for 15 ms; every stage duration must
// equal those steps exactly — zero where the clock did not move — on every
// run.
func TestTraceOnInjectedClock(t *testing.T) {
	arrive := []float64{0, 3, 10}
	const flushAt, execMS = 17, 15
	for run := 0; run < 2; run++ {
		clk := workload.NewVirtualClock(workload.Epoch())
		at := func(ms float64) time.Time {
			return workload.Epoch().Add(time.Duration(ms * float64(time.Millisecond)))
		}
		s, err := NewServer(clockedExec{clk: clk}, satisfaction.AgeDetection(), Config{
			Workers: 1, MaxBatch: 4, ManualFlush: true, Clock: clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		futs := make([]*Future, len(arrive))
		for i, ms := range arrive {
			clk.Set(at(ms))
			if futs[i], err = s.Submit(); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		clk.Set(at(flushAt))
		s.Flush()
		waitAll(t, futs)
		closeServer(t, s) // the workers have parked every trace once Close returns
		traces := s.Traces(0)
		if len(traces) != len(arrive) {
			t.Fatalf("%d traces held, want %d", len(traces), len(arrive))
		}
		for _, tr := range traces {
			i := int(tr.ID) - 1
			if !tr.Start.Equal(at(arrive[i])) {
				t.Errorf("run %d trace %d starts at %v, want virtual %v", run, tr.ID, tr.Start, at(arrive[i]))
			}
			wait := flushAt - arrive[i]
			want := []obs.Stage{
				{Name: "submit", AtMS: 0, DurMS: 0},
				{Name: "coalesce", AtMS: wait, DurMS: wait},
				{Name: "escalate", AtMS: wait, DurMS: 0},
				{Name: "execute", AtMS: wait + execMS, DurMS: execMS},
				{Name: "resolve", AtMS: wait + execMS, DurMS: 0},
			}
			if !reflect.DeepEqual(tr.Stages, want) {
				t.Errorf("run %d trace %d stages = %+v, want %+v", run, tr.ID, tr.Stages, want)
			}
		}
	}
}
