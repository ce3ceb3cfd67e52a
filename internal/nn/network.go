package nn

import (
	"fmt"
	"math"

	"pcnn/internal/tensor"
)

// Sequential is an executable feed-forward network: a chain of layers
// ending (for classifiers) in a logits-producing FC layer. Softmax and the
// cross-entropy loss live in the network, not in a layer.
type Sequential struct {
	NetName string
	Layers  []Layer
	Classes int
}

// NewSequential assembles a network.
func NewSequential(name string, classes int, layers ...Layer) *Sequential {
	return &Sequential{NetName: name, Layers: layers, Classes: classes}
}

// Name returns the network name.
func (s *Sequential) Name() string { return s.NetName }

// EngineSetter is implemented by layers whose GEMM execution can be
// redirected at a specific tensor.Engine.
type EngineSetter interface {
	SetEngine(*tensor.Engine)
}

// SetEngine directs every layer's GEMMs at eng — see tensor.NewEngine —
// descending into composite layers. nil restores the package default
// (tensor.Default()). Experiment runs stay reproducible across hosts: an
// engine produces bit-for-bit identical results at every worker count.
func (s *Sequential) SetEngine(eng *tensor.Engine) {
	for _, l := range s.Layers {
		if es, ok := l.(EngineSetter); ok {
			es.SetEngine(eng)
		}
	}
}

// Params returns all trainable parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs the network and returns raw logits (N×classes). With train
// false it is ForwardWith(x, nil): every layer computed in full.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return s.ForwardWith(x, nil)
	}
	for _, l := range s.Layers {
		x = l.Forward(x, true)
	}
	s.checkClasses(x.Len() / x.Dim(0))
	return x.Reshape(x.Dim(0), s.Classes)
}

func (s *Sequential) checkClasses(perSample int) {
	if perSample != s.Classes {
		panic(fmt.Sprintf("nn: %s: final layer produced %d values per sample, want %d classes",
			s.NetName, perSample, s.Classes))
	}
}

// ForwardWith runs inference at the operating point o and returns raw
// logits (N×classes). It touches no layer field, so concurrent calls on
// one network — each with its own options — are safe. A nil o computes
// every layer in full, each on its SetEngine engine.
func (s *Sequential) ForwardWith(x *tensor.Tensor, o *ForwardOpts) *tensor.Tensor {
	y := s.infer(x, o)
	out := tensor.New(y.n, s.Classes)
	copy(out.Data, y.data)
	y.release()
	return out
}

// infer runs the layers on the call's arena and returns the logits
// activation, which the caller consumes and releases: nothing but what it
// copies out escapes the call.
func (s *Sequential) infer(x *tensor.Tensor, o *ForwardOpts) act {
	y := inferChain(s.Layers, actOf(x), inferCtx{opts: o, pooled: true})
	s.checkClasses(y.c * y.h * y.w)
	return y
}

// Predict runs inference on the full network and returns softmax
// probability rows, one per sample.
func (s *Sequential) Predict(x *tensor.Tensor) [][]float32 { return s.PredictWith(x, nil) }

// PredictWith is Predict at the operating point o (see ForwardWith). The
// rows share one n×classes slab.
func (s *Sequential) PredictWith(x *tensor.Tensor, o *ForwardOpts) [][]float32 {
	y := s.infer(x, o)
	slab := make([]float32, y.n*s.Classes)
	out := make([][]float32, y.n)
	for i := range out {
		out[i] = slab[i*s.Classes : (i+1)*s.Classes : (i+1)*s.Classes]
		softmaxInto(out[i], y.data[i*s.Classes:(i+1)*s.Classes])
	}
	y.release()
	return out
}

// softmaxRow returns the softmax of one logit row.
func softmaxRow(logits []float32) []float32 {
	p := make([]float32, len(logits))
	softmaxInto(p, logits)
	return p
}

// softmaxInto writes the softmax of one logit row into p (numerically
// stable).
func softmaxInto(p, logits []float32) {
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v - mx))
		p[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range p {
		p[i] *= inv
	}
}

// LossAndGrad computes mean cross-entropy over the batch and the gradient
// of the logits, for training. labels[i] is the class index of sample i.
func (s *Sequential) LossAndGrad(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n := logits.Dim(0)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %s: %d labels for batch of %d", s.NetName, len(labels), n))
	}
	grad := tensor.New(n, s.Classes)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*s.Classes : (i+1)*s.Classes]
		p := softmaxRow(row)
		y := labels[i]
		if y < 0 || y >= s.Classes {
			panic(fmt.Sprintf("nn: %s: label %d out of range [0,%d)", s.NetName, y, s.Classes))
		}
		loss -= math.Log(math.Max(float64(p[y]), 1e-12))
		g := grad.Data[i*s.Classes : (i+1)*s.Classes]
		for j := range g {
			g[j] = p[j] / float32(n)
		}
		g[y] -= 1 / float32(n)
	}
	return loss / float64(n), grad
}

// Backward propagates a logits gradient through all layers.
func (s *Sequential) Backward(grad *tensor.Tensor) {
	// The final layer produced an N×classes reshape; layers expect NCHW.
	g := grad.Reshape(grad.Dim(0), s.Classes, 1, 1)
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g = s.Layers[i].Backward(g)
	}
}

// ZeroGrad clears all parameter gradients (a gradient not yet allocated
// is zero when it is).
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		if p.G != nil {
			p.G.Zero()
		}
	}
}

// PerforableLayers returns the layers whose outputs can be perforated — the
// convolutions, in network order — the tuning knobs of the run-time
// accuracy tuner.
func (s *Sequential) PerforableLayers() []*Conv {
	var out []*Conv
	for _, l := range s.Layers {
		collectConvs(l, &out)
	}
	return out
}

// collectConvs descends into composite layers (Inception).
func collectConvs(l Layer, out *[]*Conv) {
	switch v := l.(type) {
	case *Inception:
		for _, b := range v.Branches {
			for _, bl := range b.Layers {
				collectConvs(bl, out)
			}
		}
	case *Conv:
		*out = append(*out, v)
	}
}

// Accuracy runs inference at the operating point o (nil: the full network)
// on a labelled set and returns top-1 accuracy.
func (s *Sequential) Accuracy(x *tensor.Tensor, labels []int, o *ForwardOpts) float64 {
	probs := s.PredictWith(x, o)
	correct := 0
	for i, p := range probs {
		best := 0
		for j := range p {
			if p[j] > p[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
