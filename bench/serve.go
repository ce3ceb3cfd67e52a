package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"pcnn"
	"pcnn/internal/nn"
	"pcnn/internal/serve"
	"pcnn/internal/tensor"
)

// serveForward is the batching data path with real math: the pcnn.Deploy
// steps for AlexNet on TX1 under image tagging (compile, train AlexNet-S,
// attach the tuner), then Framework.Serve with product defaults (plan batch
// 32, linger 20 ms). Two generators each keep 32 SubmitInput requests in
// flight over the lab's 256 test samples: 64 outstanding is twice the
// batch, so every flush is batch-full and never linger-timed. One op is one
// request. fleet, compile and gpu do nothing inside the window. Its set-up
// is deliberately the benchmark's training/backward and perforated-forward
// measurement: the same nn/tensor layers used for writes.
type serveForward struct {
	c   *config
	fw  *pcnn.Framework
	lab *pcnn.Lab
	srv *serve.Server

	samples []*tensor.Tensor // the lab's test samples, one C×H×W view each
	// oracle[level][sample] is the class the executor picks for the sample
	// at a degradation level, computed once by direct calls.
	oracle [][]int

	trainS, attachS float64
	// Filled by the traced window for layers.
	submitNS *histogram
	stats    serve.Snapshot
	stageMS  map[string][]float64
}

const (
	serveGenerators    = 2
	serveInFlight      = 32
	serveWarmupOps     = 3200
	serveWorkers       = 2
	serveSmokeProbeLen = 32
	// argmaxTol forgives a top-two tie broken differently by a different
	// batch composition; a wrong class is far outside it.
	argmaxTol = 1e-5
)

func (w *serveForward) setup(c *config) error {
	w.c = c
	fw, err := pcnn.New("AlexNet", pcnn.PlatformByName("TX1"), pcnn.ImageTagging())
	if err != nil {
		return err
	}
	if err := fw.CompileOffline(); err != nil {
		return err
	}
	lab := pcnn.NewLab(1)
	probeX := lab.Test.X
	t0 := time.Now()
	var net *nn.Sequential
	if c.smoke {
		// Untrained weights cost the same to run and skip the training.
		net = nn.AlexNetS(rand.New(rand.NewSource(7)))
		probeX = lab.Test.Slice(0, serveSmokeProbeLen).X
	} else if net, err = lab.TrainNet("AlexNet"); err != nil {
		return err
	}
	w.trainS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := fw.AttachScaled(net, probeX); err != nil {
		return err
	}
	w.attachS = time.Since(t0).Seconds()
	w.fw, w.lab = fw, lab

	shape := lab.Test.X.Shape()
	per := lab.Test.X.Len() / shape[0]
	for i := 0; i < shape[0]; i++ {
		w.samples = append(w.samples, tensor.FromSlice(lab.Test.X.Data[i*per:(i+1)*per], shape[1:]...))
	}
	if err := w.buildOracle(); err != nil {
		return err
	}
	if w.srv, err = fw.Serve(serve.Config{Workers: serveWorkers}); err != nil {
		return err
	}
	st := w.loop(opsBudget(c.scale(serveWarmupOps)), w.srv, nil)
	if st.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", st.failed, st.attempted)
	}
	return nil
}

func (w *serveForward) executor() (*serve.PlanExecutor, error) {
	return serve.NewPlanExecutor(w.fw.Plan, w.fw.TuningPath(), w.fw.Scaled, w.fw.Table)
}

// buildOracle classifies every sample at every degradation level through a
// private executor, one plan-sized batch at a time.
func (w *serveForward) buildOracle() error {
	ex, err := w.executor()
	if err != nil {
		return err
	}
	batch := ex.MaxBatch()
	w.oracle = make([][]int, ex.Levels())
	for level := range w.oracle {
		for lo := 0; lo < len(w.samples); lo += batch {
			hi := min(lo+batch, len(w.samples))
			res, err := ex.Execute(level, hi-lo, w.lab.Test.Slice(lo, hi).X)
			if err != nil {
				return err
			}
			for _, row := range res.Probs {
				w.oracle[level] = append(w.oracle[level], argmax(row))
			}
		}
	}
	return nil
}

func argmax(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// checkResult is what makes a request "succeeded": the returned softmax
// row picks the oracle's class for that sample at the level it ran at.
func (w *serveForward) checkResult(res serve.Result, sample int) bool {
	if res.Level < 0 || res.Level >= len(w.oracle) || len(res.Probs) == 0 || res.Quantized {
		return false
	}
	want := w.oracle[res.Level][sample]
	return res.Probs[want] >= res.Probs[argmax(res.Probs)]-argmaxTol
}

func (w *serveForward) window(d time.Duration, tr *tracer) (*windowStats, error) {
	if tr == nil {
		return w.loop(timeBudget(d), w.srv, nil), nil
	}
	// Same compiled plan, same trained network, same tuning table; only
	// the executor is wrapped.
	ex, err := w.executor()
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(&tracedExecutor{Executor: ex, tr: tr, name: "serve.execute"}, w.fw.Task, serve.Config{Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	w.loop(opsBudget(w.c.scale(serveWarmupOps)/4), srv, nil) // first-use caches of the fresh executor
	st := w.loop(timeBudget(d), srv, tr)
	w.stats = srv.Stats()
	w.stageMS = map[string][]float64{}
	for _, t := range srv.Traces(0) {
		for _, s := range t.Stages {
			w.stageMS[s.Name] = append(w.stageMS[s.Name], s.DurMS)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st, srv.Close(ctx)
}

// tracedExecutor decorates a serve.Executor with one span per Execute.
// aux tags the span for linkers that must tell executors apart.
type tracedExecutor struct {
	serve.Executor
	tr   *tracer
	name string
	aux  int64 // added to the batch size, in the high bits
}

func (e *tracedExecutor) Execute(level, batch int, inputs *tensor.Tensor) (serve.BatchResult, error) {
	t0 := time.Now()
	res, err := e.Executor.Execute(level, batch, inputs)
	e.tr.add(e.name, -1, 0, e.tr.at(t0), e.tr.at(time.Now()), e.aux|int64(batch))
	return res, err
}

// BatchLimit forwards the wrapped executor's memory ceiling, so the
// server sizes its batch cap exactly as it does unwrapped.
func (e *tracedExecutor) BatchLimit() int {
	if bl, ok := e.Executor.(serve.BatchLimiter); ok {
		return bl.BatchLimit()
	}
	return 0
}

// pendingReq is one in-flight request of a generator.
type pendingReq struct {
	fut    *serve.Future
	t0     time.Time
	sample int
}

func (w *serveForward) loop(b *budget, srv *serve.Server, tr *tracer) *windowStats {
	st, submitNS := drive(b, serveGenerators, tr != nil, func(g int, st *windowStats, submitNS *histogram) {
		w.generate(b, srv, tr, rand.New(rand.NewSource(w.c.seed+int64(g))), st, submitNS)
	})
	if tr != nil {
		w.submitNS = submitNS
	}
	return st
}

// generate keeps serveInFlight requests outstanding, waiting for them in
// submit order (batches resolve in that order too).
func (w *serveForward) generate(b *budget, srv *serve.Server, tr *tracer, rng *rand.Rand, st *windowStats, submitNS *histogram) {
	ctx := context.Background()
	ring := make([]pendingReq, serveInFlight)
	head, n := 0, 0
	submit := func() bool {
		if !b.next() {
			return false
		}
		sample := rng.Intn(len(w.samples))
		st.attempted++
		t0 := time.Now()
		fut, err := srv.SubmitInput(w.samples[sample])
		if submitNS != nil {
			submitNS.record(int64(time.Since(t0)))
		}
		if err != nil {
			st.failed++
			return true
		}
		ring[(head+n)%len(ring)] = pendingReq{fut, t0, sample}
		n++
		return true
	}
	for n < len(ring) && submit() {
	}
	for n > 0 {
		p := ring[head]
		head, n = (head+1)%len(ring), n-1
		res, err := p.fut.Wait(ctx)
		t1 := time.Now()
		if err != nil || !w.checkResult(res, p.sample) {
			st.failed++
		} else {
			st.succeed(p.t0, t1)
			if tr != nil {
				tr.add("request", -1, res.ID, tr.at(p.t0), tr.at(t1), int64(res.QueueMS*1e6))
			}
		}
		submit()
	}
}

func (w *serveForward) layers(tr *tracer, _ *windowStats, m map[string]float64) error {
	w.linkSpans(tr, m)
	m["serve.batch.mean"] = w.stats.MeanBatch
	m["serve.submit.ns"] = w.submitNS.quantile(0.50)
	for _, stage := range []string{"submit", "coalesce", "escalate", "execute", "resolve"} {
		m["serve.stage."+stage+".p50_ms"] = median(w.stageMS[stage])
	}
	m["core.lab.train.s"] = w.trainS
	m["runtimemgr.attach.s"] = w.attachS
	w.probeNet(m)
	return nil
}

// linkSpans gives every request span its two children — the queue wait
// the server reported and the Execute span of the batch it rode in, found
// as the first Execute that started once the wait was over — and derives
// the serve metrics from the linked tree.
func (w *serveForward) linkSpans(tr *tracer, m map[string]float64) {
	recorded := tr.recorded()
	var execs []span
	var b32 []float64
	for _, s := range recorded {
		if s.Name == "serve.execute" {
			execs = append(execs, s)
			if s.Aux == 32 {
				b32 = append(b32, float64(s.dur()))
			}
		}
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].Start < execs[j].Start })
	var requests []int32
	var waits []float64
	for i, s := range recorded {
		if s.Name != "request" {
			continue
		}
		requests = append(requests, int32(i))
		waits = append(waits, float64(s.Aux))
		waited := s.Start + s.Aux
		tr.add("serve.queue_wait", int32(i), s.Req, s.Start, waited, 0)
		if k := sort.Search(len(execs), func(k int) bool { return execs[k].Start >= waited }); k < len(execs) && execs[k].End <= s.End {
			tr.add("serve.execute.batch", int32(i), s.Req, execs[k].Start, execs[k].End, execs[k].Aux)
		}
	}
	self := selfTimes(tr.recorded())
	selfMS := make([]float64, len(requests))
	for k, i := range requests {
		selfMS[k] = float64(self[i])
	}
	m["serve.execute.b32.ms"] = median(b32) / 1e6
	m["serve.queue_wait.p50_ms"] = median(waits) / 1e6
	m["serve.self.p50_ms"] = median(selfMS) / 1e6
}

// probeNet measures the scaled network directly: whole forwards, a
// layer-by-layer replay of one batch, allocations, one training step, and
// the two GEMM forms that dominate serving and training.
func (w *serveForward) probeNet(m map[string]float64) {
	net := w.fw.Scaled
	x32, x1 := w.lab.Test.Slice(0, 32).X, w.lab.Test.Slice(0, 1).X
	m["nn.alexnet_s.forward_b32.ms"] = w.c.probeMS(func() { net.Forward(x32, false) })
	m["nn.alexnet_s.forward_b1.ms"] = w.c.probeMS(func() { net.Forward(x1, false) })

	const replays = 20
	perLayer := map[string][]float64{}
	for r := 0; r < replays; r++ {
		sums := map[string]float64{}
		x := x32
		for _, l := range net.Layers {
			t0 := time.Now()
			x = l.Forward(x, false)
			sums[layerGroup(l.Name())] += float64(time.Since(t0))
		}
		for g, ns := range sums {
			perLayer[g] = append(perLayer[g], ns)
		}
	}
	for g, v := range perLayer {
		m["nn.alexnet_s.layer."+g+".ms"] = median(v) / 1e6
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < replays; r++ {
		net.Forward(x32, false)
	}
	runtime.ReadMemStats(&m1)
	m["nn.alexnet_s.forward_b32.allocs"] = float64(m1.Mallocs-m0.Mallocs) / replays
	m["nn.alexnet_s.forward_b32.alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / replays

	// A training step must not touch the served network's weights.
	fresh := nn.AlexNetS(rand.New(rand.NewSource(7)))
	opt := nn.NewSGD(0.01, 0.9)
	step := w.lab.Train.Slice(0, 32)
	m["nn.alexnet_s.train_step_b32.ms"] = w.c.probeMS(func() { nn.TrainEpoch(fresh, step, 32, opt) })

	// CONV2 is AlexNet-S's largest conv GEMM (24×64×108); nn.Conv runs one
	// per sample, so a batch of 32 is 32 of them. The dW form is its
	// backward twin, g·colsᵀ.
	rng := rand.New(rand.NewSource(w.c.seed))
	eng := tensor.Default()
	wt, cols, out := randomTensor(rng, 24, 108), randomTensor(rng, 108, 64), tensor.New(24, 64)
	m["tensor.gemm.scaled_conv_b32.ms"] = w.c.probeMS(func() {
		for i := 0; i < 32; i++ {
			eng.MatMulInto(out, wt, cols)
		}
	})
	g, dW := randomTensor(rng, 24, 64), tensor.New(24, 108)
	m["tensor.gemm.transb.dw.ms"] = w.c.probeMS(func() {
		for i := 0; i < 32; i++ {
			eng.MatMulTransBInto(dW, g, cols)
		}
	})
}

// layerGroup maps a scaled-network layer name onto the metric it feeds:
// the GEMM layers by name, activations and pools together as "other".
func layerGroup(name string) string {
	switch name {
	case "CONV1", "CONV2", "CONV3", "CONV4", "CONV5", "FC6", "FC8":
		return name
	}
	return "other"
}

func (w *serveForward) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Close(ctx); err != nil {
		return err
	}
	// Every accepted request resolved: nothing was lost in the pipeline.
	if st := w.srv.Stats(); st.Submitted != st.Completed+st.Failed || st.Failed != 0 {
		return fmt.Errorf("server counters do not balance: submitted %d, completed %d, failed %d", st.Submitted, st.Completed, st.Failed)
	}
	return nil
}
