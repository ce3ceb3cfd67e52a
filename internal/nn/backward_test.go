package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"pcnn/internal/tensor"
)

// col2imGeneric is the per-element col2im: every column-matrix entry adds
// into its input element, row by row in (c, ky, kx) order, positions in
// row-major order. col2im's stride-1 contiguous runs must match it bit for
// bit.
func col2imGeneric(dx, cols []float32, c, h, w, k, stride, pad int) {
	ho := (h+2*pad-k)/stride + 1
	wo := (w+2*pad-k)/stride + 1
	nPos := ho * wo
	row := 0
	for ci := 0; ci < c; ci++ {
		plane := dx[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols[row*nPos : (row+1)*nPos]
				for p := 0; p < nPos; p++ {
					oy, ox := p/wo, p%wo
					iy := oy*stride - pad + ky
					ix := ox*stride - pad + kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						plane[iy*w+ix] += src[p]
					}
				}
				row++
			}
		}
	}
}

func TestCol2imRunsMatchGeneric(t *testing.T) {
	const c, h, w = 3, 7, 6
	rng := rand.New(rand.NewSource(51))
	for _, stride := range []int{1, 2} {
		for pad := 0; pad <= 2; pad++ {
			for _, k := range []int{1, 3, 5} {
				ho := (h+2*pad-k)/stride + 1
				wo := (w+2*pad-k)/stride + 1
				cols := make([]float32, c*k*k*ho*wo)
				for i := range cols {
					cols[i] = rng.Float32()*2 - 1
				}
				// Start from a non-zero gradient so the order of the
				// additions into it shows.
				got := make([]float32, c*h*w)
				for i := range got {
					got[i] = rng.Float32()*2 - 1
				}
				want := append([]float32(nil), got...)
				col2im(got, cols, c, h, w, k, stride, pad)
				col2imGeneric(want, cols, c, h, w, k, stride, pad)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("stride %d pad %d k %d: dx[%d] = %g, per-element loop %g", stride, pad, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// convBackwardSerial is the one-sample-at-a-time conv backward: per
// sample, the column matrix, dW_i = g_i·colsᵀ added into weight.G, the
// row sums of g_i added into bias.G, then Wᵀ·g_i scattered by the
// per-element col2im. Conv.Backward shards the samples across its
// engine's workers and must reproduce this bit for bit.
func convBackwardSerial(c *Conv, x, grad *tensor.Tensor, eng *tensor.Engine) *tensor.Tensor {
	n := grad.Dim(0)
	ho, wo := c.OutDims()
	planeOut := ho * wo
	planeIn := c.inC * c.inH * c.inW
	fanIn := c.inC * c.k * c.k
	dW := tensor.New(c.outC, fanIn)
	cols := tensor.New(fanIn, planeOut)
	dx := tensor.New(n, c.inC, c.inH, c.inW)
	for i := 0; i < n; i++ {
		im2colInto(cols.Data, planeOut, x.Data[i*planeIn:(i+1)*planeIn], c.inC, c.inH, c.inW, c.k, c.stride, c.pad, ho, wo)
		gi := tensor.FromSlice(grad.Data[i*c.outC*planeOut:(i+1)*c.outC*planeOut], c.outC, planeOut)
		eng.MatMulTransBInto(dW, gi, cols)
		c.weight.G.Add(dW)
		for f := 0; f < c.outC; f++ {
			var s float32
			for _, v := range gi.Data[f*planeOut : (f+1)*planeOut] {
				s += v
			}
			c.bias.G.Data[f] += s
		}
		eng.MatMulTransAInto(cols, c.weight.W, gi)
		col2imGeneric(dx.Data[i*planeIn:(i+1)*planeIn], cols.Data, c.inC, c.inH, c.inW, c.k, c.stride, c.pad)
	}
	return dx
}

// TestConvBackwardShardedBitIdentical: every conv layer of the three
// scaled networks, at batch 1, 5 and 16, on private engines of 1, 2 and 3
// workers (threshold 0, so a GEMM inside a shard would shard again if it
// could): dx and both parameter gradients, accumulated onto non-zero
// gradients, equal the serial per-sample reference to the last bit.
func TestConvBackwardShardedBitIdentical(t *testing.T) {
	ref := tensor.NewEngine(tensor.Blocked, 1)
	for _, build := range []func(*rand.Rand) *Sequential{AlexNetS, VGGS, GoogLeNetS} {
		net := build(rand.New(rand.NewSource(61)))
		for _, conv := range net.PerforableLayers() {
			for _, n := range []int{1, 5, 16} {
				for _, workers := range []int{1, 2, 3} {
					t.Run(fmt.Sprintf("%s/%s/n%d/w%d", net.Name(), conv.Name(), n, workers), func(t *testing.T) {
						checkConvBackward(t, conv, n, workers, ref)
					})
				}
			}
		}
	}
}

func checkConvBackward(t *testing.T, conv *Conv, n, workers int, ref *tensor.Engine) {
	rng := rand.New(rand.NewSource(int64(62 + 7*n + workers)))
	random := func(shape ...int) *tensor.Tensor {
		v := tensor.New(shape...)
		for i := range v.Data {
			v.Data[i] = rng.Float32()*2 - 1
		}
		return v
	}
	ho, wo := conv.OutDims()
	x := random(n, conv.inC, conv.inH, conv.inW)
	grad := random(n, conv.outC, ho, wo)
	w0, b0 := random(conv.weight.W.Shape()...), random(conv.bias.W.Shape()...)

	eng := tensor.NewEngine(tensor.Blocked, workers)
	eng.SetParallelThreshold(0)
	conv.SetEngine(eng)
	defer conv.SetEngine(nil)
	conv.Forward(x, true) // allocates the gradients on a fresh layer
	copy(conv.weight.G.Data, w0.Data)
	copy(conv.bias.G.Data, b0.Data)
	dx := conv.Backward(grad)
	gotW := append([]float32(nil), conv.weight.G.Data...)
	gotB := append([]float32(nil), conv.bias.G.Data...)

	copy(conv.weight.G.Data, w0.Data)
	copy(conv.bias.G.Data, b0.Data)
	wantDx := convBackwardSerial(conv, x, grad, ref)
	for _, c := range []struct {
		name      string
		got, want []float32
	}{
		{"dx", dx.Data, wantDx.Data},
		{"weight.G", gotW, conv.weight.G.Data},
		{"bias.G", gotB, conv.bias.G.Data},
	} {
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s[%d] = %g, serial per-sample reference %g", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
