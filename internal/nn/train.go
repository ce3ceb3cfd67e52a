package nn

import (
	"fmt"

	"pcnn/internal/tensor"
)

// SGD is a stochastic-gradient-descent optimizer with momentum. Training
// exists in this reproduction so the accuracy/entropy experiments run on a
// genuinely learned classifier rather than synthetic numbers; it mirrors
// the paper's assumption that models arrive pre-trained.
type SGD struct {
	LR       float64
	Momentum float64
	velocity map[*Param]*tensor.Tensor
}

// NewSGD creates an optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: map[*Param]*tensor.Tensor{}}
}

// Step applies one update to every parameter and leaves gradients intact
// (callers zero them per batch). A parameter without a gradient never ran
// a training forward and is left as it is.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.G == nil {
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.W.Shape()...)
			s.velocity[p] = v
		}
		for i := range v.Data {
			v.Data[i] = float32(s.Momentum)*v.Data[i] - float32(s.LR)*p.G.Data[i]
			p.W.Data[i] += v.Data[i]
		}
		p.Changed()
	}
}

// Dataset is a labelled sample set in NCHW layout.
type Dataset struct {
	X      *tensor.Tensor // N×C×H×W
	Labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Slice returns samples [lo, hi) as a view dataset (copying tensor data).
func (d *Dataset) Slice(lo, hi int) *Dataset {
	n, c, h, w := d.X.Dim(0), d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("nn: dataset slice [%d,%d) of %d", lo, hi, n))
	}
	per := c * h * w
	sub := tensor.FromSlice(d.X.Data[lo*per:hi*per], hi-lo, c, h, w)
	return &Dataset{X: sub, Labels: d.Labels[lo:hi]}
}

// Sample returns sample i as a C×H×W view of the dataset's storage, the
// shape one serving request carries.
func (d *Dataset) Sample(i int) *tensor.Tensor {
	per := d.X.Len() / d.X.Dim(0)
	return tensor.FromSlice(d.X.Data[i*per:(i+1)*per], d.X.Shape()[1:]...)
}

// TrainEpoch runs one pass over the dataset in batches, returning the mean
// loss. The caller provides batch order via the dataset layout (shuffle by
// regenerating the dataset with a different seed if desired).
func TrainEpoch(net *Sequential, data *Dataset, batch int, opt *SGD) float64 {
	if batch <= 0 {
		panic("nn: TrainEpoch: batch must be positive")
	}
	var total float64
	var batches int
	for lo := 0; lo < data.Len(); lo += batch {
		hi := lo + batch
		if hi > data.Len() {
			hi = data.Len()
		}
		b := data.Slice(lo, hi)
		net.ZeroGrad()
		logits := net.Forward(b.X, true)
		loss, grad := net.LossAndGrad(logits, b.Labels)
		net.Backward(grad)
		opt.Step(net.Params())
		total += loss
		batches++
	}
	return total / float64(batches)
}

// Train runs epochs of SGD until the epoch budget is used, returning the
// final epoch's mean loss.
func Train(net *Sequential, data *Dataset, batch, epochs int, opt *SGD) float64 {
	var loss float64
	for e := 0; e < epochs; e++ {
		loss = TrainEpoch(net, data, batch, opt)
	}
	return loss
}
