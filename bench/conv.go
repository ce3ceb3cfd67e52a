package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"pcnn/internal/nn"
	"pcnn/internal/tensor"
)

// convFullshape is host GEMM/conv at the paper's dimensions: AlexNet
// CONV1–5 at full size through nn.NewConv on the default engine, batch 1.
// nn.Conv has no filter groups, so CONV2/4/5 run ungrouped and FLOPs are
// counted ungrouped. One op is one sweep — the five forwards in order —
// from one caller. serve, fleet and gpu do nothing here.
type convFullshape struct {
	c      *config
	shapes []nn.ConvShape
	convs  []*nn.Conv
	inputs []*tensor.Tensor
}

const (
	convWarmupSweeps = 8
	convOracleTol    = 1e-3
)

func randomTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func (w *convFullshape) setup(c *config) error {
	w.c = c
	rng := rand.New(rand.NewSource(c.seed))
	oracle := tensor.NewEngine(tensor.Serial, 1)
	for _, cs := range nn.AlexNetShape().ConvLayers() {
		conv := nn.NewConv(cs.Name, cs.Nc, cs.Hi, cs.Wi, cs.Nf, cs.Sf, cs.Stride, cs.Pad, rng)
		x := randomTensor(rng, 1, cs.Nc, cs.Hi, cs.Wi)
		// Each layer's output is checked once against the naive serial
		// engine, the repo's own test oracle.
		conv.SetEngine(oracle)
		want := conv.Forward(x, false)
		conv.SetEngine(nil)
		if err := closeTo(conv.Forward(x, false), want, convOracleTol); err != nil {
			return fmt.Errorf("%s against the serial oracle: %w", cs.Name, err)
		}
		w.shapes = append(w.shapes, cs)
		w.convs = append(w.convs, conv)
		w.inputs = append(w.inputs, x)
	}
	w.loop(opsBudget(c.scale(convWarmupSweeps)), nil)
	return nil
}

// closeTo checks max|got−want| against tol × max|want|.
func closeTo(got, want *tensor.Tensor, tol float64) error {
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("%d values, want %d", len(got.Data), len(want.Data))
	}
	var diff, scale float64
	for i, v := range want.Data {
		diff = math.Max(diff, math.Abs(float64(got.Data[i]-v)))
		scale = math.Max(scale, math.Abs(float64(v)))
	}
	if diff > tol*scale || math.IsNaN(diff) {
		return fmt.Errorf("max difference %g exceeds %g of max magnitude %g", diff, tol, scale)
	}
	return nil
}

func (w *convFullshape) window(d time.Duration, tr *tracer) (*windowStats, error) {
	return w.loop(timeBudget(d), tr), nil
}

func (w *convFullshape) loop(b *budget, tr *tracer) *windowStats {
	st := newWindowStats(b)
	for b.next() {
		st.attempted++
		req := uint64(st.attempted)
		t0 := time.Now()
		sweep := int32(-1)
		if tr != nil {
			sweep = tr.begin("sweep", -1, req)
		}
		ok := true
		for i, conv := range w.convs {
			var sp int32 = -1
			if tr != nil {
				sp = tr.begin(convSpanName(i), sweep, req)
			}
			out := conv.Forward(w.inputs[i], false)
			if tr != nil {
				tr.finish(sp)
			}
			// A NaN anywhere in the accumulation reaches the first output.
			if v := out.Data[0]; v != v {
				ok = false
			}
		}
		if tr != nil {
			tr.finish(sweep)
		}
		if !ok {
			st.failed++
			fmt.Fprintln(os.Stderr, "bench: conv_fullshape: sweep produced NaN")
			continue
		}
		st.succeed(t0, time.Now())
	}
	return st
}

func convSpanName(i int) string { return fmt.Sprintf("nn.conv.alexnet_conv%d", i+1) }

// gemmProbe times the default engine on one C = A·B of the given size.
func (w *convFullshape) gemmProbe(eng *tensor.Engine, rng *rand.Rand, m, n, k int) float64 {
	a, b, c := randomTensor(rng, m, k), randomTensor(rng, k, n), tensor.New(m, n)
	return w.c.probeMS(func() { eng.MatMulInto(c, a, b) })
}

// convGEMMDims are the batch-1 GEMM dimensions nn.Conv actually runs for a
// shape: ungrouped, whatever ConvShape.Groups says.
func convGEMMDims(cs nn.ConvShape) (m, n, k int) {
	ho, wo := cs.OutDims()
	return cs.Nf, ho * wo, cs.Sf * cs.Sf * cs.Nc
}

func (w *convFullshape) layers(tr *tracer, traced *windowStats, out map[string]float64) error {
	spans := tr.recorded()
	rng := rand.New(rand.NewSource(w.c.seed + 1))
	def := tensor.Default()

	var convMS, gemmMS, flops float64
	for i, cs := range w.shapes {
		layer := median(durations(spans, convSpanName(i))) / 1e6
		out[convSpanName(i)+".ms"] = layer
		convMS += layer
		m, n, k := convGEMMDims(cs)
		g := w.gemmProbe(def, rng, m, n, k)
		out[fmt.Sprintf("tensor.gemm.alexnet_conv%d.ms", i+1)] = g
		gemmMS += g
		flops += float64(tensor.GEMMFlops(m, n, k))
	}
	out["tensor.gemm.alexnet_conv.gflops"] = flops / (gemmMS * 1e6)
	out["nn.conv.overhead_frac"] = 1 - gemmMS/convMS
	out["nn.conv.sweep.p90_ms"] = traced.lat.ms(0.90)

	for _, cs := range nn.VGGNetShape().ConvLayers() {
		if cs.Name == "CONV2_1" || cs.Name == "CONV4_1" {
			m, n, k := convGEMMDims(cs)
			out["tensor.gemm.vgg_conv"+cs.Name[4:]+".ms"] = w.gemmProbe(def, rng, m, n, k)
		}
	}
	// AlexNet FC7 at batch 32, in the x·Wᵀ form nn.FC runs.
	x, wt, y := randomTensor(rng, 32, 4096), randomTensor(rng, 4096, 4096), tensor.New(32, 4096)
	out["tensor.gemm.fc_b32.ms"] = w.c.probeMS(func() { def.MatMulTransBInto(y, x, wt) })

	// Engines no default path selects today: baselines for the
	// Auto→blocked and real-int8-kernel roadmap items.
	m, n, k := convGEMMDims(w.shapes[1])
	for _, e := range []struct {
		name string
		prec tensor.Precision
	}{{"blocked", tensor.FP32}, {"int8", tensor.Int8}, {"fp16", tensor.FP16}} {
		eng := tensor.NewEngine(tensor.Blocked, 0)
		eng.SetPrecision(e.prec)
		out["tensor.gemm."+e.name+".alexnet_conv2.ms"] = w.gemmProbe(eng, rng, m, n, k)
	}

	// CONV2 perforated to ≈0.64 of its output grid (0.8 per side), and a
	// GoogLeNet inception-3a 1×1 reduction (the aliasing fast path).
	conv2 := w.convs[1]
	ho, wo := conv2.OutDims()
	conv2.SetPerforation(int(0.8*float64(wo)+0.5), int(0.8*float64(ho)+0.5))
	out["nn.conv.perforated.alexnet_conv2.ms"] = w.c.probeMS(func() { conv2.Forward(w.inputs[1], false) })
	conv2.SetPerforation(0, 0)
	g1x1 := nn.NewConv("inception_3a_1x1", 192, 28, 28, 64, 1, 1, 0, rng)
	gx := randomTensor(rng, 1, 192, 28, 28)
	out["nn.conv.googlenet_1x1.ms"] = w.c.probeMS(func() { g1x1.Forward(gx, false) })
	return nil
}

func (w *convFullshape) close() error { return nil }
