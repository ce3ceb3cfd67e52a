package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

// TestNextFlushDelayTracksHead pins the batching policy the autonomous
// timer arms with (flushDelayMS) on its one input: the head of the FIFO.
// The delay is min(linger, head slack − guard), both measured from the
// head's arrival, so it falls one for one with the clock and a later
// arrival moves it only through the batch-size prediction.
func TestNextFlushDelayTracksHead(t *testing.T) {
	task := satisfaction.VideoSurveillance(30)
	const msPerImage, x = 2.0, 3.0
	want := func(lingerMS, waitedMS float64, n int) float64 {
		pred := msPerImage * float64(n)
		return math.Min(lingerMS-waitedMS, task.SlackMS(waitedMS, pred)-slackGuardFrac*pred)
	}
	for _, tc := range []struct {
		name     string
		lingerMS float64
	}{
		{"linger governs", 20},
		{"slack governs", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &vclock{}
			clk.set(0)
			ex := &fakeExec{maxBatch: 8, msPerImage: []float64{msPerImage}, entropies: []float64{0.1}}
			s, err := NewServer(ex, task, Config{
				Workers: 1, MaxBatch: 8, QueueCap: 16, LingerMS: tc.lingerMS,
				ManualFlush: true, Clock: clk.now,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer closeServer(t, s)

			q := &fifo{}
			q.push(&request{at: clk.now()})
			d0 := s.flushDelayMS(q)
			if d0 != want(tc.lingerMS, 0, 1) {
				t.Fatalf("delay for one pending request = %v, want exactly %v", d0, want(tc.lingerMS, 0, 1))
			}
			clk.set(x)
			if d := s.flushDelayMS(q); math.Abs(d-(d0-x)) > 1e-9 {
				t.Errorf("delay after %v ms = %v, want %v", x, d, d0-x)
			}
			// The newcomer arrived at t = x; pricing it from its own arrival
			// would read want(linger, 0, 2).
			q.push(&request{at: clk.now()})
			if d := s.flushDelayMS(q); math.Abs(d-want(tc.lingerMS, x, 2)) > 1e-9 {
				t.Errorf("delay after a later arrival = %v, want %v (head's arrival governs)", d, want(tc.lingerMS, x, 2))
			}
		})
	}
}

// TestFlushIsAdmissionOrder: one Flush of a backlog of k·MaxBatch + r
// requests chunks it in admission order — full batches then the
// remainder, ascending IDs — and the conservation invariant is exact
// afterwards.
func TestFlushIsAdmissionOrder(t *testing.T) {
	const maxBatch, k, r = 4, 3, 2
	clk := &vclock{}
	clk.set(0)
	s, err := NewServer(manualExec{}, satisfaction.ImageTagging(), Config{
		Workers: 1, MaxBatch: maxBatch, QueueCap: 16,
		ManualFlush: true, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	var futs []*Future
	for i := 0; i < k*maxBatch+r; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if n := s.Flush(); n != k*maxBatch+r {
		t.Fatalf("Flush moved %d, want %d", n, k*maxBatch+r)
	}
	if n := s.Flush(); n != 0 {
		t.Fatalf("Flush on a drained server moved %d", n)
	}
	for i, res := range waitAll(t, futs) {
		if res.ID != uint64(i+1) {
			t.Errorf("future %d resolved as request %d, want %d", i, res.ID, i+1)
		}
		want := maxBatch
		if i >= k*maxBatch {
			want = r
		}
		if res.Batch != want {
			t.Errorf("request %d rode a batch of %d, want %d", res.ID, res.Batch, want)
		}
	}
	snap := s.Stats()
	if snap.Submitted != k*maxBatch+r || snap.Completed != snap.Submitted ||
		snap.Failed != 0 || snap.QueueDepth != 0 || snap.Batches != k+1 {
		t.Errorf("conservation: submitted %d completed %d failed %d depth %d batches %d",
			snap.Submitted, snap.Completed, snap.Failed, snap.QueueDepth, snap.Batches)
	}
}

// limitedExec decorates fakeExec with an explicit memory batch ceiling.
type limitedExec struct {
	*fakeExec
	limit int
}

func (l limitedExec) BatchLimit() int { return l.limit }

// TestBatchCap: the deadline-aware cap extends a tight compiled batch up
// to what the deadline can absorb, leaves deadline-free tasks at the
// executor's own batch, and respects the memory ceiling.
func TestBatchCap(t *testing.T) {
	// 3 ms per image at every level; surveillance at 60 fps gives a
	// 16.67 ms budget, so 5 images fit (15 ms) and 6 do not.
	ex := &fakeExec{maxBatch: 2, msPerImage: []float64{3}, entropies: []float64{0.1}}
	if got := BatchCap(ex, satisfaction.VideoSurveillance(60)); got != 5 {
		t.Errorf("BatchCap(surveillance@60) = %d, want 5", got)
	}
	// Background has no deadline: the compiled batch stands.
	if got := BatchCap(ex, satisfaction.ImageTagging()); got != 2 {
		t.Errorf("BatchCap(background) = %d, want executor's 2", got)
	}
	// A memory ceiling between the compiled batch and the deadline fit
	// wins over the deadline.
	lim := limitedExec{fakeExec: ex, limit: 3}
	if got := BatchCap(lim, satisfaction.VideoSurveillance(60)); got != 3 {
		t.Errorf("BatchCap(limited) = %d, want 3", got)
	}
	// A cap below the executor's own batch never shrinks it.
	slow := &fakeExec{maxBatch: 4, msPerImage: []float64{100}, entropies: []float64{0.1}}
	if got := BatchCap(slow, satisfaction.VideoSurveillance(60)); got != 4 {
		t.Errorf("BatchCap(slow) = %d, want the executor's 4", got)
	}
}

// failingExec fails every batch.
type failingExec struct{ fakeExec }

func (f *failingExec) Execute(l, n int, _ *tensor.Tensor) (BatchResult, error) {
	return BatchResult{}, errFailingExec
}

var errFailingExec = errTest("failing executor")

type errTest string

func (e errTest) Error() string { return string(e) }

// TestMeanBatchAccounting pins the executed-batch population: MeanBatch
// is the exact per-flush mean, the batch-size histogram counts the same
// batches, and a failed batch lands in neither.
func TestMeanBatchAccounting(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	s, err := NewServer(manualExec{}, satisfaction.ImageTagging(), Config{
		Workers: 1, MaxBatch: 4, QueueCap: 16,
		ManualFlush: true, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	var futs []*Future
	for i := 0; i < 7; i++ {
		f, err := s.Submit()
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if n := s.Flush(); n != 7 {
		t.Fatalf("flush moved %d, want 7 (batches of 4 and 3)", n)
	}
	waitAll(t, futs)

	snap := s.Stats()
	if snap.Batches != 2 {
		t.Fatalf("batches = %d, want 2", snap.Batches)
	}
	if want := 3.5; snap.MeanBatch != want {
		t.Errorf("mean batch = %v, want exactly %v", snap.MeanBatch, want)
	}
	var count uint64
	var sum float64
	for _, h := range s.met.batchSize {
		count += h.Count()
		sum += h.Sum()
	}
	if count != snap.Batches {
		t.Errorf("batch-size histogram count %d != batches %d", count, snap.Batches)
	}
	if sum != 7 {
		t.Errorf("batch-size histogram sum %v != 7 coalesced requests", sum)
	}

	// A failed batch must move neither the tally nor the histogram.
	fs, err := NewServer(&failingExec{fakeExec{maxBatch: 4, msPerImage: []float64{1}, entropies: []float64{0.1}}},
		satisfaction.ImageTagging(), Config{
			Workers: 1, MaxBatch: 4, QueueCap: 16,
			ManualFlush: true, Clock: clk.now,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, fs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f1, err := fs.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if n := fs.Flush(); n != 1 {
		t.Fatalf("flush moved %d, want 1", n)
	}
	if _, err := f1.Wait(ctx); err == nil {
		t.Fatal("failed batch resolved without error")
	}
	fsnap := fs.Stats()
	if fsnap.Batches != 0 || fsnap.MeanBatch != 0 {
		t.Errorf("failed batch counted: batches=%d mean=%v", fsnap.Batches, fsnap.MeanBatch)
	}
	if fsnap.Failed != 1 {
		t.Errorf("failed = %d, want 1", fsnap.Failed)
	}
	var fcount uint64
	for _, h := range fs.met.batchSize {
		fcount += h.Count()
	}
	if fcount != 0 {
		t.Errorf("failed batch reached the batch-size histogram (count %d)", fcount)
	}
}

// TestConcurrentClientsCoalesce runs the batcher under the race detector:
// concurrent clients land in shared batches (occupancy above one), and
// the conservation invariant holds exactly after a full drain.
func TestConcurrentClientsCoalesce(t *testing.T) {
	ex := &fakeExec{maxBatch: 8, msPerImage: []float64{4, 2}, entropies: []float64{0.1, 0.2}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 2, QueueCap: 512})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var futs []*Future
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				f, err := s.Submit()
				if err != nil {
					continue // queue-full under burst is legal; conservation still holds
				}
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, f := range futs {
		f.Wait(ctx)
	}
	closeServer(t, s)

	snap := s.Stats()
	if snap.Submitted != snap.Completed+snap.Failed {
		t.Fatalf("conservation broken after drain: submitted %d != completed %d + failed %d",
			snap.Submitted, snap.Completed, snap.Failed)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", snap.QueueDepth)
	}
	if snap.Batches == 0 || snap.MeanBatch <= 1 {
		t.Errorf("no coalescing: %d batches, mean %v", snap.Batches, snap.MeanBatch)
	}
}
