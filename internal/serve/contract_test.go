package serve

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"pcnn/internal/satisfaction"
	"pcnn/internal/tensor"
)

// contractExec costs a fixed time per level (whatever the batch size) and
// reports a scripted entropy per executed batch, so a test decides exactly
// which batches calibrate.
type contractExec struct {
	ms       []float64 // execution (and predicted) time per level
	recorded []float64 // per-level entropies the base-level pick reads
	high     []bool    // batch k measures entropy above any threshold
	k        atomic.Int64
}

func (e *contractExec) MaxBatch() int              { return 4 }
func (e *contractExec) Levels() int                { return len(e.ms) }
func (e *contractExec) Entropy(l int) float64      { return e.recorded[l] }
func (e *contractExec) PredictMS(l, _ int) float64 { return e.ms[l] }

func (e *contractExec) Execute(l, n int, _ *tensor.Tensor) (BatchResult, error) {
	entropy := 0.0
	if e.high[e.k.Add(1)-1] {
		entropy = 10
	}
	return BatchResult{TimeMS: e.ms[l], EnergyJ: float64(n), Entropy: entropy}, nil
}

// TestCompletionContract pins what a resolved future promises: the
// instant the last future of batch k resolves, the batch is accounted
// (Stats().Batches == k) and the controller has observed it (Level()
// already shows the calibration or recovery it caused). Deterministic
// drivers rely on this to read the next window's level without polling.
// The script mixes deadline pressure (escalations, via the virtual wait
// before each flush) with entropy excursions (calibrations) and calm
// stretches (recoveries) so the level moves on most batches; the expected
// walk comes from driving a reference controller with the same signals.
func TestCompletionContract(t *testing.T) {
	const (
		flushes      = 1200
		recoverAfter = 2
	)
	task := satisfaction.VideoSurveillance(10) // 100 ms deadline
	deadline := task.Deadline()
	ms := []float64{40, 30, 20, 10}
	recorded := []float64{0.1, 0.2, 10, 10} // base level 1

	type step struct {
		n      int     // requests in the batch
		waitMS float64 // virtual queueing before the flush
	}
	rng := rand.New(rand.NewSource(7))
	script := make([]step, flushes)
	high := make([]bool, flushes) // batch k measures entropy over the threshold
	for k := range script {
		// 60/70/80 ms waited leaves slack only from level 1/2/3 up; 0 fits
		// everywhere and finishes inside half the deadline (comfortable).
		script[k].n = 1 + rng.Intn(3)
		high[k] = rng.Float64() < 0.25
		if rng.Float64() < 0.4 {
			script[k].waitMS = 60 + 10*float64(rng.Intn(3))
		}
	}

	ex := &contractExec{ms: ms, recorded: recorded}
	ref := newController(len(ms), BaseLevel(ex, task), recoverAfter)
	want := make([]int, flushes)
	moved := 0
	for k, st := range script {
		before := ref.Level()
		level := ref.escalate(func(l int) bool {
			return task.SlackMS(st.waitMS, ms[l]) >= slackGuardFrac*ms[l]
		})
		ref.observe(high[k], !high[k], st.waitMS+ms[level] <= 0.5*deadline)
		if want[k] = ref.Level(); want[k] != before {
			moved++
		}
	}
	if moved < flushes/4 {
		t.Fatalf("reference walk moved the level on only %d of %d batches; the script is too tame", moved, flushes)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clk := &atomicClock{}
			ex := &contractExec{ms: ms, recorded: recorded, high: high}
			s, err := newServer(ex, task, Config{
				Workers: workers, ManualFlush: true, Clock: clk.now,
			}, recoverAfter, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer closeServer(t, s)
			for k, st := range script {
				at := 1000 * float64(k)
				clk.set(at)
				futs := make([]*Future, st.n)
				for i := range futs {
					if futs[i], err = s.Submit(); err != nil {
						t.Fatalf("batch %d submit: %v", k+1, err)
					}
				}
				clk.set(at + st.waitMS)
				if moved := s.Flush(); moved != st.n {
					t.Fatalf("batch %d: flush moved %d of %d", k+1, moved, st.n)
				}
				waitAll(t, futs)
				if got := s.Stats().Batches; got != uint64(k+1) {
					t.Fatalf("futures of batch %d resolved with Stats().Batches = %d", k+1, got)
				}
				if got := s.Level(); got != want[k] {
					t.Fatalf("futures of batch %d resolved with Level() = %d, reference walk says %d", k+1, got, want[k])
				}
			}
		})
	}
}
