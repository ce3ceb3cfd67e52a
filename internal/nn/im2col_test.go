package nn

import (
	"math"
	"math/rand"
	"testing"

	"pcnn/internal/tensor"
)

// im2colRefInto is the original one-loop im2col (per-element div-mod and
// bounds test); the production code replaced it with dense stride-1/
// stride-N and sampled paths, which must stay bit-identical to it.
func im2colRefInto(dst, x []float32, c, h, w, k, stride, pad int, positions []int, ho, wo int) {
	nPos := ho * wo
	if positions != nil {
		nPos = len(positions)
	}
	row := 0
	for ci := 0; ci < c; ci++ {
		plane := x[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				out := dst[row*nPos : (row+1)*nPos]
				for p := 0; p < nPos; p++ {
					pos := p
					if positions != nil {
						pos = positions[p]
					}
					oy, ox := pos/wo, pos%wo
					iy := oy*stride - pad + ky
					ix := ox*stride - pad + kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						out[p] = plane[iy*w+ix]
					} else {
						out[p] = 0
					}
				}
				row++
			}
		}
	}
}

func TestIm2colMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []int{1, 3} {
		for _, hw := range [][2]int{{5, 5}, {7, 4}, {6, 9}} {
			h, w := hw[0], hw[1]
			x := make([]float32, c*h*w)
			for i := range x {
				x[i] = rng.Float32()*2 - 1
			}
			for _, k := range []int{1, 2, 3} {
				for _, stride := range []int{1, 2, 3} {
					for _, pad := range []int{0, 1, 2} {
						ho := (h+2*pad-k)/stride + 1
						wo := (w+2*pad-k)/stride + 1
						if ho <= 0 || wo <= 0 {
							continue
						}
						nPos := ho * wo
						got := make([]float32, c*k*k*nPos)
						want := make([]float32, c*k*k*nPos)
						for i := range got {
							got[i], want[i] = -7, -7 // must be fully overwritten
						}
						im2colInto(got, ho*wo, x, c, h, w, k, stride, pad, ho, wo)
						im2colRefInto(want, x, c, h, w, k, stride, pad, nil, ho, wo)
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("c=%d h=%d w=%d k=%d s=%d p=%d: elem %d: got %g, want %g",
									c, h, w, k, stride, pad, i, got[i], want[i])
							}
						}

						// Sampled (perforated) form over a product sub-grid,
						// two images folded (the second is the first reversed):
						// tensor lowers it — materialized on the serial oracle,
						// packed panel by panel on the blocked kernels — and an
						// identity filter matrix reads the column matrix back
						// out; each image's block must match the reference.
						var keptX, keptY, positions []int
						for ox := 0; ox < wo; ox += 2 {
							keptX = append(keptX, ox)
						}
						for oy := 1; oy < ho; oy += 3 {
							keptY = append(keptY, oy)
						}
						if len(keptY) == 0 {
							continue
						}
						for _, oy := range keptY {
							for _, ox := range keptX {
								positions = append(positions, oy*wo+ox)
							}
						}
						x2 := append(append([]float32(nil), x...), x...)
						for i := range x {
							x2[len(x)+i] = x[len(x)-1-i]
						}
						sN, rows := len(positions), c*k*k
						geom := tensor.Im2colGeom{C: c, H: h, W: w, K: k, Stride: stride, Pad: pad,
							HO: ho, WO: wo, N: 2, SX: keptX, SY: keptY}
						eye := tensor.New(rows, rows)
						for r := 0; r < rows; r++ {
							eye.Data[r*rows+r] = 1
						}
						sWant := make([]float32, rows*sN)
						for _, bk := range []tensor.Backend{tensor.Serial, tensor.Blocked} {
							sGot := tensor.New(rows, 2*sN)
							tensor.NewEngine(bk, 1).MatMulIm2colInto(sGot, eye, x2, geom)
							for img := 0; img < 2; img++ {
								im2colRefInto(sWant, x2[img*len(x):(img+1)*len(x)], c, h, w, k, stride, pad, positions, ho, wo)
								for r := 0; r < rows; r++ {
									for p := 0; p < sN; p++ {
										if got, want := sGot.Data[r*2*sN+img*sN+p], sWant[r*sN+p]; got != want {
											t.Fatalf("sampled %v c=%d h=%d w=%d k=%d s=%d p=%d: image %d row %d pos %d: got %g, want %g",
												bk, c, h, w, k, stride, pad, img, r, p, got, want)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestConv1x1FastPathMatchesGeneric proves the input-aliasing 1×1 forward
// is bit-identical to the im2col lowering it skips, at inference and in
// training (parameter gradients and input gradient).
func TestConv1x1FastPathMatchesGeneric(t *testing.T) {
	if !conv1x1Fast {
		t.Fatal("conv1x1Fast disabled outside a test")
	}
	defer func() { conv1x1Fast = true }()

	makeConv := func() (*Conv, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(17))
		conv := NewConv("c", 8, 6, 5, 4, 1, 1, 0, rng)
		x := tensor.New(2, 8, 6, 5)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		return conv, x
	}
	sameData := func(label string, a, b []float32) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: elem %d: fast %g, generic %g", label, i, a[i], b[i])
			}
		}
	}

	// Inference.
	fastConv, x := makeConv()
	fast := fastConv.Forward(x, false)
	conv1x1Fast = false
	genConv, x2 := makeConv()
	generic := genConv.Forward(x2, false)
	conv1x1Fast = true
	sameData("forward", fast.Data, generic.Data)

	// Training step: forward, then backward with a fixed upstream gradient.
	backward := func(conv *Conv, x *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
		out := conv.Forward(x, true)
		grad := tensor.New(out.Shape()...)
		rng := rand.New(rand.NewSource(23))
		for i := range grad.Data {
			grad.Data[i] = rng.Float32()*2 - 1
		}
		return conv.Backward(grad), conv.weight.G
	}
	fastConv, x = makeConv()
	fastDx, fastDw := backward(fastConv, x)
	conv1x1Fast = false
	genConv, x2 = makeConv()
	genDx, genDw := backward(genConv, x2)
	conv1x1Fast = true
	sameData("dx", fastDx.Data, genDx.Data)
	sameData("dW", fastDw.Data, genDw.Data)
	sameData("db", fastConv.bias.G.Data, genConv.bias.G.Data)
}

// materializedForward is the two-step lowering inference no longer runs:
// build each image's column matrix (the one-loop reference, restricted to
// the keep grid's computed positions), multiply it on eng as a stored
// operand, then bias and fill each plane from its kept values. Conv.infer packs the same
// panels straight from the images, so on one engine the two must agree to
// the last bit.
func materializedForward(c *Conv, x *tensor.Tensor, keep Keep, eng *tensor.Engine) *tensor.Tensor {
	ho, wo := c.OutDims()
	m := c.maskFor(keep)
	var positions []int
	nPos := ho * wo
	if m != nil {
		xs, ys := m.SampledGrid()
		for _, oy := range ys {
			for _, ox := range xs {
				positions = append(positions, oy*wo+ox)
			}
		}
		nPos = len(positions)
	}
	n, fanIn, planeIn := x.Dim(0), c.inC*c.k*c.k, c.inC*c.inH*c.inW
	out := tensor.New(n, c.outC, ho, wo)
	cols, res := tensor.New(fanIn, nPos), tensor.New(c.outC, nPos)
	for i := 0; i < n; i++ {
		im2colRefInto(cols.Data, x.Data[i*planeIn:(i+1)*planeIn], c.inC, c.inH, c.inW, c.k, c.stride, c.pad, positions, ho, wo)
		eng.MatMulInto(res, c.weight.W, cols)
		oi := out.Data[i*c.outC*ho*wo:][:c.outC*ho*wo]
		for f := 0; f < c.outC; f++ {
			row := res.Data[f*nPos:][:nPos]
			for j := range row {
				row[j] += c.bias.W.Data[f]
			}
			if m == nil {
				copy(oi[f*nPos:], row)
			} else {
				m.Interpolate(oi[f*ho*wo:][:ho*wo], row)
			}
		}
	}
	return out
}

// TestConvFusedPackMatches proves the inference lowering — panels packed
// straight from the images inside the engine — is bit-identical to
// materializing the column matrix and multiplying it on the same engine:
// full and perforated, across stride/pad geometries (a 1×1 among them),
// on the blocked kernels serial and sharded, and on the serial oracle and
// a reduced-precision engine, whose fallback materializes inside tensor.
func TestConvFusedPackMatches(t *testing.T) {
	geoms := []struct {
		inC, h, w, outC, k, stride, pad int
	}{
		{8, 9, 9, 6, 3, 1, 1},
		{3, 21, 21, 8, 5, 4, 0}, // AlexNet-conv1-like strided shape
		{4, 7, 6, 5, 3, 2, 2},   // pad-heavy ragged shape
		{4, 8, 8, 3, 1, 1, 0},   // pointwise
		{12, 8, 8, 24, 3, 1, 1}, // AlexNet-S CONV2
	}
	engines := map[string]*tensor.Engine{
		"blocked":   tensor.NewEngine(tensor.Blocked, 1),
		"blocked-4": tensor.NewEngine(tensor.Blocked, 4),
		"serial":    tensor.NewEngine(tensor.Serial, 1),
		"fp16":      tensor.NewEngine(tensor.Blocked, 1),
	}
	engines["blocked-4"].SetParallelThreshold(0)
	engines["fp16"].SetPrecision(tensor.FP16)
	for gi, g := range geoms {
		rng := rand.New(rand.NewSource(int64(31 + gi)))
		conv := NewConv("c", g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad, rng)
		x := tensor.New(3, g.inC, g.h, g.w)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		ho, wo := conv.OutDims()
		for _, keep := range []Keep{{}, {W: (wo + 1) / 2, H: (2*ho + 2) / 3}, {W: wo, H: 1}, {W: 5, H: 5}} {
			for name, eng := range engines {
				conv.SetEngine(eng)
				conv.SetPerforation(keep.W, keep.H)
				got := conv.Forward(x, false)
				want := materializedForward(conv, x, keep, eng)
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("geom %d keep %v engine %s: elem %d: packed %g, materialized %g",
							gi, keep, name, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestConv1x1PerforatedStillSamples makes sure the pointwise fast path
// defers to the sampled lowering when perforation is active: the kept
// lists index the true output grid, not the flattened 1×(H·W) one.
func TestConv1x1PerforatedStillSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	conv := NewConv("c", 4, 8, 8, 3, 1, 1, 0, rng)
	x := tensor.New(1, 4, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	full := conv.Forward(x, false)
	conv.SetPerforation(4, 4)
	perf := conv.Forward(x, false)
	if len(perf.Data) != len(full.Data) {
		t.Fatalf("perforated output length %d, want %d", len(perf.Data), len(full.Data))
	}
	// Interpolated output differs from full computation, but computed
	// positions must match it exactly (scatter writes GEMM results).
	diff := false
	for i := range perf.Data {
		if perf.Data[i] != full.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("perforated 1x1 output identical to full; sampling did not engage")
	}
}

func TestConvGradCheck1x1(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	gradCheck(t, NewConv("c", 3, 5, 6, 4, 1, 1, 0, rng), []int{2, 3, 5, 6}, 27, 0.03)
}
