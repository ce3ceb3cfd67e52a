package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"pcnn/internal/perforate"
	"pcnn/internal/tensor"
)

// Conv is an executable convolutional layer implemented as im2col + GEMM,
// exactly the lowering of Fig 2 in the paper. It supports run-time output
// perforation (Fig 11): under a reduced Wo′×Ho′ keep grid only those output
// positions are computed and the rest are interpolated from their nearest
// computed neighbours.
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

	// own is the lone-layer operating point SetPerforation and SetEngine
	// build: only this layer's own Forward(x, false) runs under its mask.
	// own.engine is also the layer's training engine, and a network call
	// without options runs on it (nil = package default).
	own ForwardOpts

	masks sync.Map // Keep → *perforate.Mask, see maskFor

	// Backward caches (training always runs unperforated).
	lastCols  []*tensor.Tensor
	lastInput *tensor.Tensor

	// Reused gradient buffers: conv backward runs every training step with
	// fixed geometry, so dW (outC × fanIn) and dcols (fanIn × ho·wo) are
	// allocated once instead of per step.
	dW    *tensor.Tensor
	dcols *tensor.Tensor
}

// conv1x1Fast gates the 1×1 stride-1 unpadded fast path (see pointwise);
// tests flip it to prove the path is bit-identical to the generic
// im2col lowering.
var conv1x1Fast = true

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
func (c *Conv) SetEngine(eng *tensor.Engine) { c.own.engine = eng }

// engine returns the layer's compute engine.
func (c *Conv) engine() *tensor.Engine {
	if c.own.engine != nil {
		return c.own.engine
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

// SetPerforation sets the keepW×keepH grid this layer computes when it runs
// alone, through its own Forward(x, false); (0, 0) restores full
// computation. A network never reads it: its calls carry ForwardOpts.
func (c *Conv) SetPerforation(keepW, keepH int) {
	c.own.masks = nil
	if m := c.maskFor(Keep{keepW, keepH}); m != nil {
		c.own.masks = map[*Conv]*perforate.Mask{c: m}
	}
}

// maskFor returns the perforation mask of a keep grid, or nil when the
// grid means full computation. Each (geometry, keep) mask is built once
// and cached on the layer, safely under concurrent use, so neither
// SetPerforation nor NewForwardOpts constructs a mask twice.
func (c *Conv) maskFor(k Keep) *perforate.Mask {
	ho, wo := c.OutDims()
	if k.Full(wo, ho) {
		return nil
	}
	if m, ok := c.masks.Load(k); ok {
		return m.(*perforate.Mask)
	}
	m := perforate.Grid(wo, ho, k.W, k.H).Prepared()
	cached, _ := c.masks.LoadOrStore(k, &m)
	return cached.(*perforate.Mask)
}

// foldBudget caps, in floats, the block one folded inference GEMM holds
// per layer — (fanIn + outC) × samples·nPos: its result plus a column
// matrix's worth, which bounds the packed-B slabs (no column matrix is
// built on the blocked kernels) — so a large batch folds in sample chunks
// of bounded scratch. 2 MiB holds a whole 32-sample batch of every
// scaled-network layer but VGG-S's widest; a single full-size image
// always forms a chunk of its own.
const foldBudget = 1 << 19

// Forward implements Layer.
func (c *Conv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return forwardAlone(c, x, &c.own)
	}
	c.checkInput(x.Dim(1), x.Dim(2), x.Dim(3))
	n := x.Dim(0)
	ho, wo := c.OutDims()
	out := tensor.New(n, c.outC, ho, wo)
	c.lastCols = make([]*tensor.Tensor, n)
	c.lastInput = x

	planeIn := c.inC * c.inH * c.inW
	planeOut := ho * wo
	fanIn := c.inC * c.k * c.k
	eng := c.engine()
	// Training lowers one sample at a time — each sample's column matrix
	// is cached for Backward — and always unperforated. A 1×1 stride-1
	// unpadded convolution's column matrix IS the input plane (fanIn = inC
	// rows of ho·wo values, in row-major order); Backward only reads
	// lastCols, so that path caches the input-aliasing view without
	// copying.
	res, releaseRes := tensor.NewScratch(c.outC, planeOut)
	defer releaseRes()
	for i := 0; i < n; i++ {
		xi := x.Data[i*planeIn : (i+1)*planeIn]
		var cols *tensor.Tensor
		if c.pointwise() {
			cols = tensor.FromSlice(xi, fanIn, planeOut)
		} else {
			cols = tensor.New(fanIn, planeOut)
			im2colInto(cols.Data, planeOut, xi, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, ho, wo)
		}
		c.lastCols[i] = cols
		eng.MatMulInto(res, c.weight.W, cols) // outC × planeOut
		c.addBias(out.Data[i*c.outC*planeOut:(i+1)*c.outC*planeOut], res.Data, planeOut, 0, planeOut)
	}
	return out
}

func (c *Conv) checkInput(ch, h, w int) {
	if ch != c.inC || h != c.inH || w != c.inW {
		panic(fmt.Sprintf("nn: conv %s input [N %d %d %d], want [N %d %d %d]", c.name, ch, h, w, c.inC, c.inH, c.inW))
	}
}

// pointwise reports whether the column matrix of one image is the image
// itself: a 1×1 stride-1 unpadded convolution (conv1x1Fast lets tests
// force the generic lowering).
func (c *Conv) pointwise() bool {
	return conv1x1Fast && c.k == 1 && c.stride == 1 && c.pad == 0
}

// addBias writes one sample's planes: dst[f] = res[f][off : off+nPos] + bias[f],
// where res is an outC × ld GEMM result.
func (c *Conv) addBias(dst, res []float32, ld, off, nPos int) {
	for f := 0; f < c.outC; f++ {
		row := res[f*ld+off:][:nPos]
		b := c.bias.W.Data[f]
		d := dst[f*nPos:][:nPos]
		for j, v := range row {
			d[j] = v + b
		}
	}
}

// infer implements Layer: a batch of n lowers to one GEMM per sample
// chunk with N = samples·nPos, through Engine.MatMulIm2colInto — the
// blocked kernels pack GEMM panels straight from the input images, and a
// perforated layer is the same call with the mask's kept columns and rows
// in the geometry, which shrinks nPos to Wo′·Ho′. The bias pass then
// writes NCHW, scattering and interpolating per sample under a mask. A
// column's K order does not depend on its neighbours, so every output
// element is bit-identical to a batch-1 call's.
func (c *Conv) infer(x act, ctx inferCtx) act {
	c.checkInput(x.c, x.h, x.w)
	eng := ctx.engine(c.own.engine)
	var m *perforate.Mask // nil = full computation
	if ctx.opts != nil {
		m = ctx.opts.masks[c]
	}
	ho, wo := c.OutDims()
	out := ctx.alloc(x.n, c.outC, ho, wo)

	planeIn := c.inC * c.inH * c.inW
	planeOut := ho * wo
	fanIn := c.inC * c.k * c.k
	nPos := planeOut
	geom := tensor.Im2colGeom{
		C: c.inC, H: c.inH, W: c.inW, K: c.k,
		Stride: c.stride, Pad: c.pad, HO: ho, WO: wo,
	}
	switch {
	case m != nil:
		nPos = m.SampledCount()
		geom.SX, geom.SY = m.SampledGrid()
	case c.pointwise():
		// The image is its own column matrix, one ho·wo-wide row per
		// channel: every panel is runs. (Kept lists index the true grid,
		// so a masked 1×1 keeps the true geometry.)
		geom.H, geom.W, geom.HO, geom.WO = 1, c.inH*c.inW, 1, planeOut
	}

	chunk := min(max(foldBudget/((fanIn+c.outC)*nPos), 1), x.n)
	res := tensor.GetScratch(c.outC * chunk * nPos)
	defer tensor.PutScratch(res)
	for s0 := 0; s0 < x.n; s0 += chunk {
		ns := min(chunk, x.n-s0)
		ld := ns * nPos
		geom.N = ns
		eng.MatMulIm2colInto(tensor.FromSlice(res[:c.outC*ld], c.outC, ld), c.weight.W,
			x.data[s0*planeIn:(s0+ns)*planeIn], geom)
		for s := 0; s < ns; s++ {
			oi := out.data[(s0+s)*c.outC*planeOut:][:c.outC*planeOut]
			if m == nil {
				c.addBias(oi, res, ld, s*nPos, nPos)
				continue
			}
			for f := 0; f < c.outC; f++ {
				row := res[f*ld+s*nPos:][:nPos]
				b := c.bias.W.Data[f]
				for j := range row {
					row[j] += b
				}
				m.Scatter(row, oi[f*planeOut:(f+1)*planeOut])
			}
			m.Interpolate(oi, c.outC)
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
	// Backward consumes the forward cache: a trained network that goes on
	// to serve must not pin its last batch's column matrices (megabytes
	// per layer) for the rest of its life.
	c.lastCols, c.lastInput = nil, nil
	return dx
}
