package nn

import (
	"math"
	"math/rand"

	"pcnn/internal/tensor"
)

// Param is one trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// Layer is one stage of an executable network. Inputs and outputs are
// NCHW tensors (fully-connected layers treat H=W=1).
type Layer interface {
	// Name identifies the layer in plans and tuning tables.
	Name() string
	// Forward computes the layer output. When train is true, the layer
	// caches whatever it needs for Backward; when false it is infer for
	// this layer alone, into a fresh output — a Conv under its own
	// SetPerforation/SetEngine options, the lone-layer form of ForwardOpts.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// infer is the one inference implementation: a pure function of the
	// layer's weights, x and the call's options that writes no layer field
	// and never overwrites a buffer the call does not own.
	infer(x act, ctx inferCtx) act
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients. It must follow a Forward with train=true.
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
