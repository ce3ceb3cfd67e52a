package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"pcnn/internal/par"
	"pcnn/internal/perforate"
	"pcnn/internal/tensor"
)

// Conv is an executable convolutional layer implemented as im2col + GEMM,
// exactly the lowering of Fig 2 in the paper. It supports run-time output
// perforation (Fig 11): under a reduced Wo′×Ho′ keep grid only those output
// positions are computed and the rest are interpolated bilinearly from the
// computed positions around them.
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

	pack atomic.Pointer[convPack] // the weights packed for inference, see packed

	lastInput *tensor.Tensor // the training forward's input, for Backward

	// shards is Backward's per-shard state, one per engine worker, reused
	// every step: conv backward runs with fixed geometry.
	shards []convShard
}

// convShard is one Backward shard's reused state: a column buffer (one
// sample's column matrix, then its gradient), GEMM headers re-pointed at
// each sample's slices, so a step allocates no per-sample tensors, and the
// step's pooled partials (dW_i then db_i per sample; kept counts the
// samples a later shard leaves for the ordered reduction).
type convShard struct {
	buf, part   []float32
	kept        int
	cols, g, dW *tensor.Tensor
}

// convPack is a conv's weights packed at a tile, and the weight generation
// they were packed from.
type convPack struct {
	gen uint64
	a   *tensor.PackedA
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
	c.weight = &Param{Name: name + ".weight", W: tensor.New(outC, fanIn)}
	c.bias = &Param{Name: name + ".bias", W: tensor.New(outC)}
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
	m := perforate.Grid(wo, ho, k.W, k.H)
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

// Forward implements Layer. A training forward is infer on the full grid —
// never the layer's own SetPerforation mask — on the layer's engine, and
// keeps x for Backward (allocating the gradients on the first one).
func (c *Conv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return forwardAlone(c, x, inferCtx{opts: &c.own})
	}
	c.lastInput = x
	c.weight.needGrad()
	c.bias.needGrad()
	return forwardAlone(c, x, inferCtx{train: true})
}

// packed returns the weights packed at tensor.DefaultTile, packing them
// on the first inference after a weight change (Param.Changed) or a tile
// change. The pack is the layer's, swapped in whole through an atomic
// pointer: concurrent first calls may each pack, and each reads a complete
// pack of the current weights.
func (c *Conv) packed() *tensor.PackedA {
	gen := c.weight.gen.Load()
	if p := c.pack.Load(); p != nil && p.gen == gen && p.a.Tile() == tensor.DefaultTile {
		return p.a
	}
	p := &convPack{gen: gen, a: tensor.PackA(c.weight.W)}
	c.pack.Store(p)
	return p.a
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

// infer implements Layer: a batch of n lowers to one GEMM per sample
// chunk with N = samples·nPos, through Engine.MatMulIm2colPackedInto on
// the layer's packed weights (a training forward passes them unpacked) —
// the blocked kernels pack GEMM panels straight from the input images, and
// a perforated layer is the same call with the mask's kept columns and
// rows in the geometry, which shrinks nPos to Wo′·Ho′. The bias pass then
// writes NCHW, under a mask filling each plane from its kept values; an
// unmasked one-sample chunk's outC × nPos result already is the sample's
// planes, so the GEMM writes them in place. A column's K order does not
// depend on its neighbours, so every output element is bit-identical to a
// batch-1 call's.
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

	var pa *tensor.PackedA
	if !ctx.train {
		pa = c.packed()
	}
	chunk := min(max(foldBudget/((fanIn+c.outC)*nPos), 1), x.n)
	direct := chunk == 1 && m == nil
	var res []float32
	if !direct {
		res = tensor.GetScratch(c.outC * chunk * nPos)
		defer tensor.PutScratch(res)
	}
	for s0 := 0; s0 < x.n; s0 += chunk {
		ns := min(chunk, x.n-s0)
		ld := ns * nPos
		geom.N = ns
		xs := x.data[s0*planeIn : (s0+ns)*planeIn]
		if direct {
			res = out.data[s0*c.outC*planeOut:][:c.outC*planeOut]
		}
		if r := tensor.FromSlice(res[:c.outC*ld], c.outC, ld); pa != nil {
			eng.MatMulIm2colPackedInto(r, pa, xs, geom)
		} else {
			eng.MatMulIm2colInto(r, c.weight.W, xs, geom)
		}
		for s := 0; s < ns; s++ {
			oi := out.data[(s0+s)*c.outC*planeOut:][:c.outC*planeOut]
			for f := 0; f < c.outC; f++ {
				row := res[f*ld+s*nPos:][:nPos]
				b := c.bias.W.Data[f]
				if !direct && m == nil {
					d := oi[f*nPos:][:nPos]
					for j, v := range row {
						d[j] = v + b
					}
					continue
				}
				// In place: the output plane itself when direct.
				for j := range row {
					row[j] += b
				}
				if m != nil {
					m.Interpolate(oi[f*planeOut:][:planeOut], row)
				}
			}
		}
	}
	return out
}

// Backward implements Layer. Every sample's column matrix, dW_i = g_i·colsᵀ,
// db_i, Wᵀ·g_i and col2im are independent of the other samples, so the
// samples are sharded across the engine's workers in contiguous chunks
// (par.Chunks, split by the one read of Workers() that also sizes the
// shard state), each shard rebuilding columns from the kept input into
// its own buffer (a 1×1 stride-1 unpadded convolution's column matrix IS
// the input plane, so that path reads an input-aliasing view instead). The gradients still
// take dW_i and db_i in sample order, element by element, as a
// one-sample-at-a-time loop adds them: the first chunk's samples come
// first, so its shard adds each as soon as it is computed, and every later
// shard keeps its partials for the caller to add, chunk by chunk, once all
// shards are done. A shard's GEMMs run on the layer's engine like any
// other, so one above the threshold splits its stripes again. The result
// is bit-identical at any worker count.
func (c *Conv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic(fmt.Sprintf("nn: conv %s: Backward without training Forward", c.name))
	}
	n := grad.Dim(0)
	ho, wo := c.OutDims()
	planeOut := ho * wo
	planeIn := c.inC * c.inH * c.inW
	fanIn := c.inC * c.k * c.k
	eng := c.engine()
	workers := eng.Workers()
	c.growShards(workers, fanIn, planeOut)
	dx := tensor.New(n, c.inC, c.inH, c.inW)
	wG, bG := c.weight.G.Data, c.bias.G.Data
	nW := len(wG)
	stride := nW + len(bG) // one sample's dW_i then db_i
	par.Chunks(n, workers, func(shard, lo, hi int) {
		sh := &c.shards[shard]
		if shard > 0 {
			sh.kept = hi - lo
		}
		sh.part = tensor.GetScratch(max(sh.kept, 1) * stride)
		for i := lo; i < hi; i++ {
			xi := x.Data[i*planeIn:][:planeIn]
			sh.cols.Data = sh.buf
			if c.pointwise() {
				sh.cols.Data = xi
			} else {
				im2colInto(sh.buf, planeOut, xi, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, ho, wo)
			}
			gi := grad.Data[i*c.outC*planeOut:][:c.outC*planeOut]
			pi := sh.part[:stride]
			if sh.kept > 0 {
				pi = sh.part[(i-lo)*stride:][:stride]
			}
			sh.g.Data, sh.dW.Data = gi, pi[:nW]
			// cols is (inC·k·k) × planeOut, so dW_i = g(outC×planeOut) · colsᵀ.
			eng.MatMulTransBInto(sh.dW, sh.g, sh.cols)
			db := pi[nW:]
			for f := range db {
				var s float32
				for _, v := range gi[f*planeOut:][:planeOut] {
					s += v
				}
				db[f] = s
			}
			if sh.kept == 0 {
				addInto(wG, pi[:nW])
				addInto(bG, db)
			}
			// dcols = Wᵀ · g, into the column buffer dW_i is done reading.
			sh.cols.Data = sh.buf
			eng.MatMulTransAInto(sh.cols, c.weight.W, sh.g)
			col2im(dx.Data[i*planeIn:][:planeIn], sh.buf, c.inC, c.inH, c.inW, c.k, c.stride, c.pad)
		}
		sh.g.Data, sh.dW.Data = nil, nil // hold neither this step's gradient nor pooled memory
	})
	for k := range c.shards {
		sh := &c.shards[k]
		for j := 0; j < sh.kept; j++ {
			pi := sh.part[j*stride:][:stride]
			addInto(wG, pi[:nW])
			addInto(bG, pi[nW:])
		}
		if sh.part != nil {
			tensor.PutScratch(sh.part)
		}
		sh.part, sh.kept = nil, 0
	}
	// Backward consumes the forward cache: a trained network that goes on
	// to serve must not pin its last training batch for the rest of its
	// life.
	c.lastInput = nil
	return dx
}

// growShards makes Backward's per-shard state cover w shards.
func (c *Conv) growShards(w, fanIn, planeOut int) {
	for len(c.shards) < w {
		buf := make([]float32, fanIn*planeOut)
		c.shards = append(c.shards, convShard{
			buf:  buf,
			cols: tensor.FromSlice(buf, fanIn, planeOut),
			g:    tensor.New(c.outC, planeOut),
			dW:   tensor.New(c.outC, fanIn),
		})
	}
}

// addInto adds src into dst element by element.
func addInto(dst, src []float32) {
	for j := range dst {
		dst[j] += src[j]
	}
}
