package nn

import (
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
						// each image's column block must match the reference.
						var keptX, keptY, positions []int
						for ox := 0; ox < wo; ox += 2 {
							keptX = append(keptX, ox)
						}
						for oy := 1; oy < ho; oy += 3 {
							keptY = append(keptY, oy)
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
						sN := len(positions)
						sGot := make([]float32, c*k*k*2*sN)
						sWant := make([]float32, c*k*k*sN)
						im2colSampled(sGot, x2, 2, c, h, w, k, stride, pad, keptX, keptY)
						for img := 0; img < 2 && sN > 0; img++ {
							im2colRefInto(sWant, x2[img*len(x):(img+1)*len(x)], c, h, w, k, stride, pad, positions, ho, wo)
							for r := 0; r < c*k*k; r++ {
								for p := 0; p < sN; p++ {
									if got, want := sGot[r*2*sN+img*sN+p], sWant[r*sN+p]; got != want {
										t.Fatalf("sampled c=%d h=%d w=%d k=%d s=%d p=%d: image %d row %d pos %d: got %g, want %g",
											c, h, w, k, stride, pad, img, r, p, got, want)
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

// TestConvFusedPackMatches proves the fused im2col→pack-B inference path
// is bit-identical to the two-step materializing lowering on the blocked
// backend, across stride/pad geometries and on both the serial and the
// sharded engine. (Perforated and training forwards never take the fused
// path, so only the plain inference forward is compared.)
func TestConvFusedPackMatches(t *testing.T) {
	if !convFusedPack {
		t.Fatal("convFusedPack disabled outside a test")
	}
	defer func() { convFusedPack = true }()

	geoms := []struct {
		inC, h, w, outC, k, stride, pad int
	}{
		{8, 9, 9, 6, 3, 1, 1},
		{3, 21, 21, 8, 5, 4, 0}, // AlexNet-conv1-like strided shape
		{4, 7, 6, 5, 3, 2, 2},   // pad-heavy ragged shape
	}
	for gi, g := range geoms {
		for _, workers := range []int{1, 4} {
			eng := tensor.NewEngine(tensor.Blocked, workers)
			eng.SetParallelThreshold(0)
			makeConv := func() (*Conv, *tensor.Tensor) {
				rng := rand.New(rand.NewSource(int64(31 + gi)))
				conv := NewConv("c", g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad, rng)
				conv.SetEngine(eng)
				x := tensor.New(2, g.inC, g.h, g.w)
				for i := range x.Data {
					x.Data[i] = rng.Float32()*2 - 1
				}
				return conv, x
			}
			fusedConv, x := makeConv()
			fused := fusedConv.Forward(x, false)
			convFusedPack = false
			twoConv, x2 := makeConv()
			twostep := twoConv.Forward(x2, false)
			convFusedPack = true
			for i := range fused.Data {
				if fused.Data[i] != twostep.Data[i] {
					t.Fatalf("geom %d workers %d: elem %d: fused %g, two-step %g",
						gi, workers, i, fused.Data[i], twostep.Data[i])
				}
			}
		}
	}
}

// TestConv1x1PerforatedStillSamples makes sure the fast path defers to the
// sampled im2col when perforation is active (the fast path cannot shrink
// the GEMM's N dimension).
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
