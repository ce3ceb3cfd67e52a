package nn

import (
	"math"
	"math/rand"
	"sync/atomic"

	"pcnn/internal/tensor"
)

// Param is one trainable parameter with its gradient accumulator. G is
// nil until the parameter's first training forward: a network that only
// serves never holds a gradient. Every write to W.Data must be followed by
// Changed, which SGD.Step calls, so that what a layer derives from W (a
// Conv's packed weights) is rebuilt rather than read stale.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
	gen  atomic.Uint64 // W's generation, bumped by Changed
}

// Changed records a write to W.Data.
func (p *Param) Changed() { p.gen.Add(1) }

// needGrad allocates G, zeroed, on the first training forward.
func (p *Param) needGrad() {
	if p.G == nil {
		p.G = tensor.New(p.W.Shape()...)
	}
}

// Layer is one stage of an executable network. Inputs and outputs are
// NCHW tensors (fully-connected layers treat H=W=1).
type Layer interface {
	// Name identifies the layer in plans and tuning tables.
	Name() string
	// Forward is infer for this layer alone, into a fresh output. With
	// train false a Conv runs under its own SetPerforation/SetEngine
	// options, the lone-layer form of ForwardOpts; with train true it
	// computes the full grid, and a leaf layer keeps x, all its Backward
	// needs.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// infer is the one inference implementation: a pure function of the
	// layer's weights, x and the call's options that writes no layer field
	// and never overwrites a buffer the call does not own.
	infer(x act, ctx inferCtx) act
	// Backward consumes the gradient w.r.t. the layer output — it may
	// overwrite it — and returns the gradient w.r.t. the layer input,
	// accumulating parameter gradients. It must follow a Forward with
	// train=true.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (may be empty).
	Params() []*Param
}

// initWeights fills w with He-initialized values: N(0, sqrt(2/fanIn)).
func initWeights(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64()) * std
	}
}
