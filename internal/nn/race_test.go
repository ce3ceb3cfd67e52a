package nn

import (
	"math/rand"
	"sync"
	"testing"

	"pcnn/internal/tensor"
)

// Concurrency stress for the sharded GEMM path: independent networks share
// the process-wide scratch pool and (here) one 4-worker GEMM engine.
// Run under -race this guards the stripe fork/join and sync.Pool reuse
// against data races and buffer aliasing — a pooled im2col or GEMM buffer leaking
// between two in-flight forwards would corrupt outputs.

// referenceLogits computes the expected logits for a fresh tinyNet(seed)
// on data, unsharded.
func referenceLogits(seed int64, data *Dataset) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	net := tinyNet(rng)
	net.SetEngine(unshardedEngine())
	return net.Forward(data.X, false)
}

func TestConcurrentForwardSharedPools(t *testing.T) {
	eng := shardedEngine()
	dataRng := rand.New(rand.NewSource(99))
	data := tinyData(12, dataRng)

	const goroutines = 6
	want := referenceLogits(7, data)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns its network (layers cache state), but
			// all share eng and the global scratch pool.
			rng := rand.New(rand.NewSource(7))
			net := tinyNet(rng)
			net.SetEngine(eng)
			for iter := 0; iter < 10; iter++ {
				got := net.Forward(data.X, false)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent forward corrupted logits at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentTrainingIndependentNetworks(t *testing.T) {
	eng := shardedEngine()

	// Unsharded reference trajectory.
	refRng := rand.New(rand.NewSource(11))
	refNet := tinyNet(refRng)
	refNet.SetEngine(unshardedEngine())
	refData := tinyData(18, rand.New(rand.NewSource(12)))
	refOpt := NewSGD(0.05, 0.9)
	var refLosses []float64
	for e := 0; e < 4; e++ {
		refLosses = append(refLosses, TrainEpoch(refNet, refData, 6, refOpt))
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(11))
			net := tinyNet(rng)
			net.SetEngine(eng)
			data := tinyData(18, rand.New(rand.NewSource(12)))
			opt := NewSGD(0.05, 0.9)
			for e := 0; e < 4; e++ {
				if loss := TrainEpoch(net, data, 6, opt); loss != refLosses[e] {
					t.Errorf("epoch %d loss %v, want %v (training raced)", e, loss, refLosses[e])
					return
				}
			}
		}()
	}
	wg.Wait()
}
