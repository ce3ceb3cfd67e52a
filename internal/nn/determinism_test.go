package nn

import (
	"math/rand"
	"testing"

	"pcnn/internal/tensor"
)

// Worker-count invariance: the blocked kernels compute every C tile with
// the same micro-kernel calls in the same order however the NR panels are
// striped, so every quantity the experiments report — training loss
// trajectories, predictions, accuracies — must be bit-for-bit identical
// whether a GEMM runs on one goroutine or across several. This is what keeps
// `cmd/experiments` summaries identical across hosts with different core
// counts.

// unshardedEngine and shardedEngine are the default (blocked) engine on
// one goroutine and split four ways with a zero threshold, so
// even the tiny test GEMMs shard on a single-CPU host.
func unshardedEngine() *tensor.Engine { return tensor.NewEngine(tensor.Blocked, 1) }

func shardedEngine() *tensor.Engine {
	eng := tensor.NewEngine(tensor.Blocked, 4)
	eng.SetParallelThreshold(0)
	return eng
}

// trainTrajectory trains a fresh tinyNet under eng and returns the
// per-epoch losses plus the final flattened parameters.
func trainTrajectory(eng *tensor.Engine, epochs int) ([]float64, []float32) {
	rng := rand.New(rand.NewSource(21))
	net := tinyNet(rng)
	net.SetEngine(eng)
	data := tinyData(24, rand.New(rand.NewSource(22)))
	opt := NewSGD(0.05, 0.9)
	losses := make([]float64, epochs)
	for e := range losses {
		losses[e] = TrainEpoch(net, data, 8, opt)
	}
	var params []float32
	for _, p := range net.Params() {
		params = append(params, p.W.Data...)
	}
	return losses, params
}

func TestTrainLossTrajectoryWorkerInvariant(t *testing.T) {
	serLosses, serParams := trainTrajectory(unshardedEngine(), 6)
	parLosses, parParams := trainTrajectory(shardedEngine(), 6)
	for e := range serLosses {
		if serLosses[e] != parLosses[e] {
			t.Fatalf("epoch %d: unsharded loss %v != sharded loss %v", e, serLosses[e], parLosses[e])
		}
	}
	for i := range serParams {
		if serParams[i] != parParams[i] {
			t.Fatalf("trained weights diverge at %d: %v vs %v", i, serParams[i], parParams[i])
		}
	}
}

func TestScaledNetworkSummaryWorkerInvariant(t *testing.T) {
	// The experiments' Table I / Fig 16 summaries reduce to trained-network
	// accuracies and predictions; compare those across worker counts on a
	// scaled network, including training through Conv backward.
	run := func(eng *tensor.Engine) (float64, [][]float32) {
		rng := rand.New(rand.NewSource(31))
		net := AlexNetS(rng)
		net.SetEngine(eng)
		n := 16
		x := tensor.New(n, 3, ScaledInputSize, ScaledInputSize)
		labels := make([]int, n)
		xr := rand.New(rand.NewSource(32))
		for i := range x.Data {
			x.Data[i] = xr.Float32()
		}
		for i := range labels {
			labels[i] = i % ScaledClasses
		}
		data := &Dataset{X: x, Labels: labels}
		opt := NewSGD(0.05, 0.9)
		TrainEpoch(net, data, 8, opt)
		return net.Accuracy(x, labels, nil), net.Predict(x)
	}
	serAcc, serProbs := run(unshardedEngine())
	parAcc, parProbs := run(shardedEngine())
	if serAcc != parAcc {
		t.Fatalf("accuracy %v (unsharded) != %v (sharded)", serAcc, parAcc)
	}
	for i := range serProbs {
		for j := range serProbs[i] {
			if serProbs[i][j] != parProbs[i][j] {
				t.Fatalf("prediction [%d][%d] diverges: %v vs %v", i, j, serProbs[i][j], parProbs[i][j])
			}
		}
	}
}

func TestPerforatedForwardWorkerInvariant(t *testing.T) {
	// Perforated inference shrinks the GEMM's N dimension; the sampled
	// column matrix now comes from pooled scratch, which must not change
	// results at either worker count.
	run := func(eng *tensor.Engine) *tensor.Tensor {
		rng := rand.New(rand.NewSource(41))
		conv := NewConv("p", 3, 8, 8, 4, 3, 1, 1, rng)
		conv.SetEngine(eng)
		conv.SetPerforation(5, 5)
		x := tensor.New(2, 3, 8, 8)
		xr := rand.New(rand.NewSource(42))
		for i := range x.Data {
			x.Data[i] = xr.Float32()
		}
		return conv.Forward(x, false)
	}
	ser := run(unshardedEngine())
	par := run(shardedEngine())
	for i := range ser.Data {
		if ser.Data[i] != par.Data[i] {
			t.Fatalf("perforated output diverges at %d", i)
		}
	}
}
