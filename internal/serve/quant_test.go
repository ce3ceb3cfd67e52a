package serve

import (
	"math/rand"
	"sync"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/nn"
	"pcnn/internal/runtimemgr"
	"pcnn/internal/satisfaction"
	"pcnn/internal/sched"
	"pcnn/internal/tensor"
)

// quantExec extends fakeExec with the quantization rung: a modeled
// speedup/entropy-premium pair and a recorded quantized execution path,
// so the tests can tell exactly which batches rode the rung and at what
// precision.
type quantExec struct {
	fakeExec
	spec         QuantSpec
	quantEntropy float64 // measured entropy a quantized batch reports

	qmu        sync.Mutex
	quantBatch []batchRecord
	quantPrec  []tensor.Precision
}

func (q *quantExec) QuantSpec(p tensor.Precision) (QuantSpec, bool) {
	if p == tensor.FP32 {
		return QuantSpec{}, false
	}
	return q.spec, true
}

func (q *quantExec) ExecuteQuant(p tensor.Precision, l, n int, _ *tensor.Tensor) (BatchResult, error) {
	q.qmu.Lock()
	q.quantBatch = append(q.quantBatch, batchRecord{l, n})
	q.quantPrec = append(q.quantPrec, p)
	q.qmu.Unlock()
	return BatchResult{
		TimeMS:  q.PredictMS(l, n) / q.spec.Speedup,
		EnergyJ: 0.25 * float64(n),
		Entropy: q.quantEntropy,
	}, nil
}

func (q *quantExec) quantRecorded() ([]batchRecord, []tensor.Precision) {
	q.qmu.Lock()
	defer q.qmu.Unlock()
	return append([]batchRecord(nil), q.quantBatch...),
		append([]tensor.Precision(nil), q.quantPrec...)
}

// TestQuantRungEscalation: a deadline no fp32 flush can meet but the
// quantized one can must ride the quant rung at the base level — the
// quantize-before-perforate ordering — and surface that everywhere:
// the Result, the Stats counters, the Prediction, and Health.
func TestQuantRungEscalation(t *testing.T) {
	// Deadline 1000/120 ≈ 8.33ms; fp32 costs 10ms/image, quantized 5ms.
	ex := &quantExec{
		fakeExec:     fakeExec{maxBatch: 4, msPerImage: []float64{10}, entropies: []float64{0.1}},
		spec:         QuantSpec{Speedup: 2, EntropyDelta: 0.05},
		quantEntropy: 0.15,
	}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(120),
		Config{Workers: 1, ManualFlush: true, Quantize: tensor.Int8})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	f, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	res := waitAll(t, []*Future{f})[0]

	if !res.Quantized || res.Level != 0 {
		t.Fatalf("result quantized=%v level=%d, want quantized at level 0", res.Quantized, res.Level)
	}
	if res.ExecMS != 5 {
		t.Errorf("quantized ExecMS = %v, want 5 (10ms / speedup 2)", res.ExecMS)
	}
	if got, prec := ex.quantRecorded(); len(got) != 1 || got[0] != (batchRecord{0, 1}) {
		t.Fatalf("quant batches = %v, want one {0 1}", got)
	} else if prec[0] != tensor.Int8 {
		t.Errorf("quant precision = %v, want Int8", prec[0])
	}
	if fp := ex.recorded(); len(fp) != 0 {
		t.Errorf("fp32 Execute ran %v; the quant rung should have absorbed the batch", fp)
	}

	snap := s.Stats()
	if !snap.Quantized || snap.QuantizedBatches != 1 || snap.QuantEscalations != 1 {
		t.Errorf("stats quantized=%v batches=%d escalations=%d, want true/1/1",
			snap.Quantized, snap.QuantizedBatches, snap.QuantEscalations)
	}
	if snap.Escalations != 0 {
		t.Errorf("perforation escalations = %d; quant must come before perforation", snap.Escalations)
	}
	if !s.Quantized() {
		t.Error("Server.Quantized() = false while the rung serves")
	}
	p := s.Predict(4)
	if !p.Quantized {
		t.Error("Prediction.Quantized = false while the rung serves")
	}
	if want := ex.PredictMS(0, 4) / ex.spec.Speedup; p.BatchMS != want {
		t.Errorf("quantized Prediction.BatchMS = %v, want PredictMS/speedup = %v", p.BatchMS, want)
	}
	h := s.Health()
	if !h.Degraded || !h.Quantized {
		t.Fatalf("health degraded=%v quantized=%v, want degraded quantized", h.Degraded, h.Quantized)
	}
	found := false
	for _, r := range h.Reasons {
		if r == "serving quantized host GEMM" {
			found = true
		}
	}
	if !found {
		t.Errorf("health reasons %v missing the quant rung", h.Reasons)
	}
}

// TestQuantVetoAtServer drives the deterministic calibration-veto cycle
// end to end: a quantized batch whose measured entropy crosses the task
// threshold switches the rung off and vetoes it for RecoverAfter
// flushes; only after the cooldown may escalation quantize again.
func TestQuantVetoAtServer(t *testing.T) {
	ex := &quantExec{
		fakeExec:     fakeExec{maxBatch: 4, msPerImage: []float64{10}, entropies: []float64{0.1}},
		spec:         QuantSpec{Speedup: 2, EntropyDelta: 0.05},
		quantEntropy: 0.9, // blows through VideoSurveillance's 0.35 threshold
	}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(120),
		Config{Workers: 1, ManualFlush: true, Quantize: tensor.Int8, RecoverAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	// Batch 1 quantizes, gets vetoed; batches 2–4 must serve fp32 while
	// the cooldown drains; batch 5 quantizes again.
	want := []bool{true, false, false, false, true}
	for i, w := range want {
		f, err := s.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		s.Flush()
		res := waitAll(t, []*Future{f})[0]
		if res.Quantized != w {
			t.Fatalf("batch %d quantized = %v, want %v", i+1, res.Quantized, w)
		}
		if i == 0 {
			if snap := s.Stats(); snap.QuantCalibrations != 1 || snap.Quantized {
				t.Fatalf("after vetoed batch: calibrations=%d quantized=%v, want 1/false",
					snap.QuantCalibrations, snap.Quantized)
			}
		}
	}
	// Batch 5's own observe vetoes the rung a second time — its measured
	// entropy is just as bad — so both rung counters end at 2.
	snap := s.Stats()
	if snap.QuantEscalations != 2 || snap.QuantCalibrations != 2 {
		t.Errorf("quant escalations=%d calibrations=%d, want 2/2",
			snap.QuantEscalations, snap.QuantCalibrations)
	}
	if snap.Escalations != 0 {
		t.Errorf("perforation escalations = %d with a single-level executor, want 0", snap.Escalations)
	}
}

// TestQuantGateNoHeadroom: when the precision's entropy premium does not
// fit under the task threshold the rung must never arm — deadline
// pressure notwithstanding — exactly the runtimemgr.QuantizeAllowed
// check applied at server construction.
func TestQuantGateNoHeadroom(t *testing.T) {
	ex := &quantExec{
		fakeExec: fakeExec{maxBatch: 4, msPerImage: []float64{10}, entropies: []float64{0.1}},
		// 0.1 base + 0.3 premium > the 0.35 threshold: no headroom.
		spec:         QuantSpec{Speedup: 2, EntropyDelta: 0.3},
		quantEntropy: 0.15,
	}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(120),
		Config{Workers: 1, ManualFlush: true, Quantize: tensor.Int8})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)

	f, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	res := waitAll(t, []*Future{f})[0]

	if res.Quantized {
		t.Fatal("batch quantized despite no entropy headroom")
	}
	if got, _ := ex.quantRecorded(); len(got) != 0 {
		t.Fatalf("ExecuteQuant ran %v with a disarmed rung", got)
	}
	snap := s.Stats()
	if snap.QuantEscalations != 0 || snap.QuantizedBatches != 0 {
		t.Errorf("quant escalations=%d batches=%d, want 0/0", snap.QuantEscalations, snap.QuantizedBatches)
	}
}

// TestQuantPlainExecutor: Config.Quantize on an executor that does not
// implement QuantExecutor must be a silent no-op, not an error.
func TestQuantPlainExecutor(t *testing.T) {
	ex := &fakeExec{maxBatch: 4, msPerImage: []float64{1}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{Workers: 1, Quantize: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	f, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if res := waitAll(t, []*Future{f})[0]; res.Quantized {
		t.Error("plain executor produced a quantized batch")
	}
}

// TestPlanExecutorQuant covers the production executor's quantized path
// on a real scaled network: the int8 run must return valid softmax rows
// whose top-1 picks agree with fp32 within the documented bound, report
// a measured (not tabulated) entropy, come out cheaper by the modeled
// speedup, and leave the fp32 engine untouched for the next batch.
func TestPlanExecutorQuant(t *testing.T) {
	task := satisfaction.ImageTagging()
	plan := compilePlan(t, "AlexNet", "K20c", task)
	scaled := nn.AlexNetS(rand.New(rand.NewSource(1)))

	layers := scaled.PerforableLayers()
	full := make([]runtimemgr.KeepGrid, len(layers))
	table := &runtimemgr.Table{
		LayerNames: layerNames(layers),
		Entries:    []runtimemgr.TableEntry{{Keeps: full, Speedup: 1, TunedLayer: -1}},
	}
	path := []sched.TuningPoint{{Entropy: 0.2}}

	ex, err := NewPlanExecutor(plan, path, scaled, table)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.QuantSpec(tensor.FP32); ok {
		t.Fatal("QuantSpec(FP32) reported a quantized mode")
	}
	spec, ok := ex.QuantSpec(tensor.Int8)
	if !ok || spec.Speedup != compile.Int8GEMMSpeedup || spec.EntropyDelta != Int8EntropyDelta {
		t.Fatalf("QuantSpec(Int8) = %+v ok=%v, want the compile-modeled profile", spec, ok)
	}

	const batch = 8
	inputs := tensor.New(batch, 3, nn.ScaledInputSize, nn.ScaledInputSize)
	for i := range inputs.Data {
		inputs.Data[i] = float32(i%7) * 0.1
	}

	fp32, err := ex.Execute(0, batch, inputs)
	if err != nil {
		t.Fatal(err)
	}
	int8res, err := ex.ExecuteQuant(tensor.Int8, 0, batch, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(int8res.Probs) != batch {
		t.Fatalf("int8 run returned %d prob rows, want %d", len(int8res.Probs), batch)
	}
	if int8res.Entropy <= 0 || int8res.Entropy == path[0].Entropy+spec.EntropyDelta {
		t.Errorf("int8 entropy %v looks tabulated, want measured", int8res.Entropy)
	}
	if want := fp32.TimeMS / spec.Speedup; int8res.TimeMS != want {
		t.Errorf("int8 TimeMS = %v, want fp32/speedup = %v", int8res.TimeMS, want)
	}

	// Documented top-1 agreement bound for the int8 path: at least 7 of 8
	// rows must agree with fp32. On this deterministic seed the observed
	// agreement is 8/8; the slack absorbs kernel-level rounding drift
	// without letting a broken quantized path through.
	agree := 0
	for i := range int8res.Probs {
		sum := float32(0)
		for _, p := range int8res.Probs[i] {
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("int8 row %d not a distribution (sum %v)", i, sum)
		}
		if argmaxRow(int8res.Probs[i]) == argmaxRow(fp32.Probs[i]) {
			agree++
		}
	}
	if agree < batch-1 {
		t.Fatalf("int8 top-1 agreement %d/%d below the documented bound %d/%d",
			agree, batch, batch-1, batch)
	}

	// The quantized run must not leak its engine into the fp32 path: a
	// fresh Execute has to reproduce the first fp32 result bit-for-bit.
	again, err := ex.Execute(0, batch, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Probs {
		for j := range again.Probs[i] {
			if again.Probs[i][j] != fp32.Probs[i][j] {
				t.Fatalf("fp32 row %d diverged after the quantized run", i)
			}
		}
	}
}

func argmaxRow(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}
