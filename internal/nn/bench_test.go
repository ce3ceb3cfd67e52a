package nn

import (
	"math/rand"
	"testing"

	"pcnn/internal/tensor"
)

// BenchmarkConvForward measures one im2col+GEMM convolution at the scaled
// networks' heaviest geometry.
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv("b", 24, 8, 8, 32, 3, 1, 1, rng)
	x := tensor.New(8, 24, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// BenchmarkConvSweepAlexNet runs the five full-size AlexNet convolutions
// in order at batch 1 on the default engine (ungrouped, as nn.Conv runs
// them). One op is one sweep: the repository benchmark's conv_fullshape
// op without its harness.
func BenchmarkConvSweepAlexNet(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var convs []*Conv
	var inputs []*tensor.Tensor
	for _, cs := range AlexNetShape().ConvLayers() {
		convs = append(convs, NewConv(cs.Name, cs.Nc, cs.Hi, cs.Wi, cs.Nf, cs.Sf, cs.Stride, cs.Pad, rng))
		x := tensor.New(1, cs.Nc, cs.Hi, cs.Wi)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		inputs = append(inputs, x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, conv := range convs {
			conv.Forward(inputs[j], false)
		}
	}
}

// BenchmarkConv1x1Forward measures the pointwise-convolution fast path
// (GoogLeNet-style reduction layer) against the generic im2col lowering
// of the same geometry.
func BenchmarkConv1x1Forward(b *testing.B) {
	for _, fast := range []bool{true, false} {
		name := "fast"
		if !fast {
			name = "im2col"
		}
		b.Run(name, func(b *testing.B) {
			defer func() { conv1x1Fast = true }()
			conv1x1Fast = fast
			rng := rand.New(rand.NewSource(1))
			conv := NewConv("b", 64, 28, 28, 32, 1, 1, 0, rng)
			// The blocked backend shrinks the GEMM share enough for the
			// lowering cost to show.
			conv.SetEngine(tensor.NewEngine(tensor.Blocked, 1))
			x := tensor.New(4, 64, 28, 28)
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Forward(x, false)
			}
		})
	}
}

// BenchmarkIm2col measures the column-matrix lowering alone at a VGG-ish
// geometry, for both the contiguous stride-1 path and the strided path.
func BenchmarkIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const c, h, w = 64, 56, 56
	x := make([]float32, c*h*w)
	for i := range x {
		x[i] = rng.Float32()
	}
	for _, cfg := range []struct {
		name           string
		k, stride, pad int
	}{
		{"k3s1p1", 3, 1, 1},
		{"k3s2p1", 3, 2, 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ho := (h+2*cfg.pad-cfg.k)/cfg.stride + 1
			wo := (w+2*cfg.pad-cfg.k)/cfg.stride + 1
			dst := make([]float32, c*cfg.k*cfg.k*ho*wo)
			b.SetBytes(int64(len(dst)) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im2colInto(dst, ho*wo, x, c, h, w, cfg.k, cfg.stride, cfg.pad, ho, wo)
			}
		})
	}
}

// BenchmarkConvFusedPack compares conv forward on the blocked backend —
// panels packed straight from the images — against materializing the
// column matrix and multiplying it on the same engine, at a VGG-ish
// geometry. -benchmem shows what the packer saves (no fanIn×nPos column
// matrix); TestConvFusedPackMatches pins the outputs bit-identical.
func BenchmarkConvFusedPack(b *testing.B) {
	for _, fused := range []bool{true, false} {
		name := "fused"
		if !fused {
			name = "twostep"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv("b", 64, 28, 28, 64, 3, 1, 1, rng)
			eng := tensor.NewEngine(tensor.Blocked, 1)
			conv.SetEngine(eng)
			x := tensor.New(2, 64, 28, 28)
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fused {
					conv.Forward(x, false)
				} else {
					materializedForward(conv, x, Keep{}, eng)
				}
			}
		})
	}
}

// BenchmarkConvForwardPerforated measures the same convolution at half
// keep — the payoff run-time tuning banks on.
func BenchmarkConvForwardPerforated(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv("b", 24, 8, 8, 32, 3, 1, 1, rng)
	conv.SetPerforation(6, 6)
	x := tensor.New(8, 24, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

// BenchmarkConvForwardBackend compares the default engine with the naive
// serial oracle on the same convolution (VGG-ish full-size geometry so the
// GEMM clears the sharding threshold).
func BenchmarkConvForwardBackend(b *testing.B) {
	for _, bk := range []tensor.Backend{tensor.Blocked, tensor.Serial} {
		b.Run(bk.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv("b", 64, 28, 28, 64, 3, 1, 1, rng)
			conv.SetEngine(tensor.NewEngine(bk, 0))
			x := tensor.New(2, 64, 28, 28)
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Forward(x, false)
			}
		})
	}
}

// BenchmarkAlexNetSInferenceBackend measures the scaled network end to end
// under the default engine and the naive serial oracle.
func BenchmarkAlexNetSInferenceBackend(b *testing.B) {
	for _, bk := range []tensor.Backend{tensor.Blocked, tensor.Serial} {
		b.Run(bk.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net := AlexNetS(rng)
			net.SetEngine(tensor.NewEngine(bk, 0))
			x := tensor.New(4, 3, ScaledInputSize, ScaledInputSize)
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Predict(x)
			}
		})
	}
}

// BenchmarkAlexNetSInference measures a full scaled-network forward pass.
func BenchmarkAlexNetSInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := AlexNetS(rng)
	x := tensor.New(4, 3, ScaledInputSize, ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

// BenchmarkTrainEpoch measures one SGD epoch on a small batch — the cost
// unit of the accuracy lab.
func BenchmarkTrainEpoch(b *testing.B) {
	net, data, opt := trainEpochFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainEpoch(net, data, 16, opt)
	}
}

// trainEpochFixture is AlexNet-S with a seeded 32-sample set and its
// optimizer: one TrainEpoch at batch 16 is two training steps.
func trainEpochFixture() (*Sequential, *Dataset, *SGD) {
	rng := rand.New(rand.NewSource(1))
	net := AlexNetS(rng)
	n := 32
	x := tensor.New(n, 3, ScaledInputSize, ScaledInputSize)
	labels := make([]int, n)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	for i := range labels {
		labels[i] = i % ScaledClasses
	}
	return net, &Dataset{X: x, Labels: labels}, NewSGD(0.01, 0.9)
}
