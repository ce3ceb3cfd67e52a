package nn

import (
	"fmt"
	"math/rand"

	"pcnn/internal/tensor"
)

// FC is an executable fully-connected layer. It accepts any NCHW input and
// flattens C·H·W into its input features; its output is N×Out×1×1.
type FC struct {
	name    string
	in, out int

	weight *Param // out × in
	bias   *Param // out

	eng *tensor.Engine // nil = package default

	lastInput *tensor.Tensor // flattened N×in view
	lastShape []int

	dW *tensor.Tensor // reused out×in gradient buffer
}

// NewFC creates a fully-connected layer with He-initialized weights.
func NewFC(name string, in, out int, rng *rand.Rand) *FC {
	f := &FC{name: name, in: in, out: out}
	f.weight = &Param{Name: name + ".weight", W: tensor.New(out, in), G: tensor.New(out, in)}
	f.bias = &Param{Name: name + ".bias", W: tensor.New(out), G: tensor.New(out)}
	initWeights(f.weight.W, in, rng)
	return f
}

// Name implements Layer.
func (f *FC) Name() string { return f.name }

// SetEngine directs the layer's GEMMs at eng (nil restores the default).
func (f *FC) SetEngine(eng *tensor.Engine) { f.eng = eng }

// engine returns the layer's compute engine.
func (f *FC) engine() *tensor.Engine {
	if f.eng != nil {
		return f.eng
	}
	return tensor.Default()
}

// Params implements Layer.
func (f *FC) Params() []*Param { return []*Param{f.weight, f.bias} }

// Shape returns the layer geometry for the analytical models.
func (f *FC) Shape() FCShape { return FCShape{Name: f.name, In: f.in, Out: f.out} }

// Forward implements Layer.
func (f *FC) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return forwardAlone(f, x, nil)
	}
	out := forwardAlone(f, x, nil) // checks the feature count
	f.lastInput = x.Reshape(x.Dim(0), f.in)
	f.lastShape = x.Shape()
	return out
}

// infer implements Layer: out = flat · Wᵀ + b, one row per sample — one
// GEMM per batch, which the FC lowering always was.
func (f *FC) infer(x act, ctx inferCtx) act {
	if feats := x.c * x.h * x.w; feats != f.in {
		panic(fmt.Sprintf("nn: fc %s: input [%d %d %d %d] has %d features, want %d", f.name, x.n, x.c, x.h, x.w, feats, f.in))
	}
	out := ctx.alloc(x.n, f.out, 1, 1)
	ctx.engine(f.eng).MatMulTransBInto(tensor.FromSlice(out.data, x.n, f.out), tensor.FromSlice(x.data, x.n, f.in), f.weight.W)
	for i := 0; i < x.n; i++ {
		row := out.data[i*f.out : (i+1)*f.out]
		for j := range row {
			row[j] += f.bias.W.Data[j]
		}
	}
	return out
}

// Backward implements Layer.
func (f *FC) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastInput == nil {
		panic(fmt.Sprintf("nn: fc %s: Backward without training Forward", f.name))
	}
	n := grad.Dim(0)
	g := grad.Reshape(n, f.out)
	eng := f.engine()
	// dW = gᵀ · x  (out × in), into a buffer reused across steps.
	if f.dW == nil {
		f.dW = tensor.New(f.out, f.in)
	}
	eng.MatMulTransAInto(f.dW, g, f.lastInput)
	f.weight.G.Add(f.dW)
	for i := 0; i < n; i++ {
		row := g.Data[i*f.out : (i+1)*f.out]
		for j, v := range row {
			f.bias.G.Data[j] += v
		}
	}
	// dx = g · W  (n × in)
	dx := eng.MatMul(g, f.weight.W)
	f.lastInput = nil // consumed; see Conv.Backward
	return dx.Reshape(f.lastShape...)
}
