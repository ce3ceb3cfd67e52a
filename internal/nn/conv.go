package nn

import (
	"fmt"
	"math/rand"

	"pcnn/internal/perforate"
	"pcnn/internal/tensor"
)

// Conv is an executable convolutional layer implemented as im2col + GEMM,
// exactly the lowering of Fig 2 in the paper. It supports run-time output
// perforation (Fig 11): when a reduced keepW×keepH grid is set, only those
// output positions are computed and the rest are interpolated from their
// nearest computed neighbours.
type Conv struct {
	name   string
	inC    int
	inH    int
	inW    int
	outC   int
	k      int
	stride int
	pad    int

	weight *Param // (outC) × (inC·k·k)
	bias   *Param // outC

	keepW, keepH int // 0,0 = full computation

	eng *tensor.Engine // nil = package default

	// Backward caches (training always runs unperforated).
	lastCols  []*tensor.Tensor
	lastInput *tensor.Tensor

	// Reused gradient buffers: conv backward runs every training step with
	// fixed geometry, so dW (outC × fanIn) and dcols (fanIn × ho·wo) are
	// allocated once instead of per step.
	dW    *tensor.Tensor
	dcols *tensor.Tensor
}

// conv1x1Fast gates the 1×1 stride-1 unpadded fast path in Forward;
// tests flip it to prove the path is bit-identical to the generic
// im2col lowering.
var conv1x1Fast = true

// convFusedPack gates the fused im2col→pack-B path of the blocked
// kernels: GEMM panels are packed straight from the input image, so
// inference forward never materializes the column matrix. Tests flip it
// to prove the fused path is bit-identical to the two-step lowering.
var convFusedPack = true

// NewConv creates a convolutional layer with He-initialized weights.
func NewConv(name string, inC, inH, inW, outC, k, stride, pad int, rng *rand.Rand) *Conv {
	c := &Conv{
		name: name, inC: inC, inH: inH, inW: inW,
		outC: outC, k: k, stride: stride, pad: pad,
	}
	if ho, wo := c.OutDims(); ho <= 0 || wo <= 0 {
		panic(fmt.Sprintf("nn: conv %s produces empty output", name))
	}
	fanIn := inC * k * k
	c.weight = &Param{
		Name: name + ".weight",
		W:    tensor.New(outC, fanIn),
		G:    tensor.New(outC, fanIn),
	}
	c.bias = &Param{Name: name + ".bias", W: tensor.New(outC), G: tensor.New(outC)}
	initWeights(c.weight.W, fanIn, rng)
	return c
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// SetEngine directs the layer's GEMMs at eng (nil restores the default).
func (c *Conv) SetEngine(eng *tensor.Engine) { c.eng = eng }

// engine returns the layer's compute engine.
func (c *Conv) engine() *tensor.Engine {
	if c.eng != nil {
		return c.eng
	}
	return tensor.Default()
}

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.weight, c.bias} }

// OutDims returns the full output spatial extent.
func (c *Conv) OutDims() (ho, wo int) {
	ho = (c.inH+2*c.pad-c.k)/c.stride + 1
	wo = (c.inW+2*c.pad-c.k)/c.stride + 1
	return ho, wo
}

// Shape returns the layer's geometry as a ConvShape for the analytical
// models.
func (c *Conv) Shape() ConvShape {
	return ConvShape{
		Name: c.name, Nc: c.inC, Hi: c.inH, Wi: c.inW,
		Nf: c.outC, Sf: c.k, Stride: c.stride, Pad: c.pad,
	}
}

// SetPerforation implements Perforable. (0, 0) restores full computation.
func (c *Conv) SetPerforation(keepW, keepH int) {
	c.keepW, c.keepH = keepW, keepH
}

// Perforation implements Perforable.
func (c *Conv) Perforation() (keepW, keepH int) { return c.keepW, c.keepH }

// mask returns the active perforation mask, or a full mask when disabled.
func (c *Conv) mask() perforate.Mask {
	ho, wo := c.OutDims()
	if c.keepW <= 0 || c.keepH <= 0 || (c.keepW >= wo && c.keepH >= ho) {
		return perforate.Full(wo, ho)
	}
	return perforate.Grid(wo, ho, c.keepW, c.keepH)
}

// Forward implements Layer.
func (c *Conv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	if x.Dim(1) != c.inC || x.Dim(2) != c.inH || x.Dim(3) != c.inW {
		panic(fmt.Sprintf("nn: conv %s input %v, want [N %d %d %d]", c.name, x.Shape(), c.inC, c.inH, c.inW))
	}
	ho, wo := c.OutDims()
	out := tensor.New(n, c.outC, ho, wo)

	m := c.mask()
	perforated := !m.IsFull() && !train
	if train {
		c.lastCols = make([]*tensor.Tensor, n)
		c.lastInput = x
	}

	planeIn := c.inC * c.inH * c.inW
	planeOut := ho * wo
	fanIn := c.inC * c.k * c.k
	nPos := planeOut
	var positions []int
	if perforated {
		positions = m.SampledIndices()
		nPos = m.SampledCount()
	}

	eng := c.engine()
	// A 1×1 stride-1 unpadded convolution's column matrix IS the input
	// plane (fanIn = inC rows of ho·wo values, in row-major order), so the
	// GEMM can read the input directly instead of copying it through
	// im2col. Perforation still needs the sampled column matrix.
	fast1x1 := conv1x1Fast && c.k == 1 && c.stride == 1 && c.pad == 0 && !perforated
	// Whenever the engine resolves to the blocked kernels (the default),
	// unperforated inference packs GEMM panels straight from the input
	// image (fused im2col→pack-B) — the column matrix is never materialized
	// and the fanIn×nPos scratch buffer, the largest in conv forward, is
	// never taken. The fused packer is fp32-only; reduced precision keeps
	// the two-step lowering and its fast im2col.
	fusedPack := convFusedPack && !train && !perforated && !fast1x1 &&
		eng.Backend().Resolved() == tensor.Blocked && eng.Precision() == tensor.FP32
	geom := tensor.Im2colGeom{
		C: c.inC, H: c.inH, W: c.inW, K: c.k,
		Stride: c.stride, Pad: c.pad, HO: ho, WO: wo,
	}
	// The GEMM shapes are identical for every sample in the batch, so the
	// column matrix (at inference; training caches it) and the GEMM output
	// come from the scratch pool and are reused across the loop.
	var colsScratch *tensor.Tensor
	var releaseCols func()
	if !train && !fast1x1 && !fusedPack {
		colsScratch, releaseCols = tensor.NewScratch(fanIn, nPos)
		defer releaseCols()
	}
	res, releaseRes := tensor.NewScratch(c.outC, nPos)
	defer releaseRes()

	for i := 0; i < n; i++ {
		xi := x.Data[i*planeIn : (i+1)*planeIn]
		if fusedPack {
			eng.MatMulIm2colInto(res, c.weight.W, xi, geom) // outC × nPos
		} else {
			var cols *tensor.Tensor
			switch {
			case fast1x1:
				cols = tensor.FromSlice(xi, fanIn, nPos)
			case train:
				cols = tensor.New(fanIn, nPos)
				im2colInto(cols.Data, xi, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, positions, ho, wo)
			default:
				cols = colsScratch
				im2colInto(cols.Data, xi, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, positions, ho, wo)
			}
			if train {
				// Backward only reads lastCols, so the 1×1 path may cache the
				// input-aliasing view without copying.
				c.lastCols[i] = cols
			}
			eng.MatMulInto(res, c.weight.W, cols) // outC × nPos
		}
		oi := out.Data[i*c.outC*planeOut : (i+1)*c.outC*planeOut]
		if perforated {
			for f := 0; f < c.outC; f++ {
				row := res.Data[f*nPos : (f+1)*nPos]
				b := c.bias.W.Data[f]
				for j := range row {
					row[j] += b
				}
				m.Scatter(row, oi[f*planeOut:(f+1)*planeOut])
			}
			m.Interpolate(oi, c.outC)
		} else {
			for f := 0; f < c.outC; f++ {
				row := res.Data[f*planeOut : (f+1)*planeOut]
				b := c.bias.W.Data[f]
				dst := oi[f*planeOut : (f+1)*planeOut]
				for j, v := range row {
					dst[j] = v + b
				}
			}
		}
	}
	return out
}

// Backward implements Layer. Training always runs unperforated.
func (c *Conv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastCols == nil {
		panic(fmt.Sprintf("nn: conv %s: Backward without training Forward", c.name))
	}
	n := grad.Dim(0)
	ho, wo := c.OutDims()
	planeOut := ho * wo
	planeIn := c.inC * c.inH * c.inW
	fanIn := c.inC * c.k * c.k
	if c.dW == nil {
		c.dW = tensor.New(c.outC, fanIn)
		c.dcols = tensor.New(fanIn, planeOut)
	}
	eng := c.engine()
	dx := tensor.New(n, c.inC, c.inH, c.inW)
	for i := 0; i < n; i++ {
		gi := tensor.FromSlice(grad.Data[i*c.outC*planeOut:(i+1)*c.outC*planeOut], c.outC, planeOut)
		// cols is (inC·k·k) × planeOut, so dW = g(outC×planeOut) · colsᵀ.
		eng.MatMulTransBInto(c.dW, gi, c.lastCols[i])
		c.weight.G.Add(c.dW)
		// db += row sums of g
		for f := 0; f < c.outC; f++ {
			var s float32
			row := gi.Data[f*planeOut : (f+1)*planeOut]
			for _, v := range row {
				s += v
			}
			c.bias.G.Data[f] += s
		}
		// dcols = Wᵀ · g
		eng.MatMulTransAInto(c.dcols, c.weight.W, gi)
		col2im(dx.Data[i*planeIn:(i+1)*planeIn], c.dcols, c.inC, c.inH, c.inW, c.k, c.stride, c.pad)
	}
	return dx
}
