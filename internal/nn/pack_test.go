package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pcnn/internal/tensor"
)

// Conv inference reads weights packed once per weight generation and tile
// (Conv.packed); a training forward reads them unpacked. These tests hold
// the packed forward to that unpacked one, and to a freshly built
// network, bit for bit.

// scaledBatch is n seeded samples at the scaled networks' input size, with
// labels cycling through the classes.
func scaledBatch(rng *rand.Rand, n int) *Dataset {
	x := tensor.New(n, 3, ScaledInputSize, ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % ScaledClasses
	}
	return &Dataset{X: x, Labels: labels}
}

// sameTensor fails unless got equals want bit for bit.
func sameTensor(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %g, want %g", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardAfterStepMatchesFreshNetwork: a network that has packed its
// weights, then taken an SGD step, must infer exactly as a freshly built
// network holding the stepped weights — the step makes every pack stale.
func TestForwardAfterStepMatchesFreshNetwork(t *testing.T) {
	for _, build := range []func(*rand.Rand) *Sequential{AlexNetS, GoogLeNetS} {
		net := build(rand.New(rand.NewSource(71)))
		data := scaledBatch(rand.New(rand.NewSource(72)), 4)
		before := net.ForwardWith(data.X, nil) // packs every conv
		TrainEpoch(net, data, 4, NewSGD(0.05, 0.9))
		got := net.ForwardWith(data.X, nil)

		fresh := build(rand.New(rand.NewSource(73)))
		for i, p := range fresh.Params() {
			copy(p.W.Data, net.Params()[i].W.Data)
			p.Changed()
		}
		sameTensor(t, net.Name()+" after a step", got, fresh.ForwardWith(data.X, nil))
		same := true
		for i := range got.Data {
			same = same && got.Data[i] == before.Data[i]
		}
		if same {
			t.Fatalf("%s: the step left the logits unchanged; it did not engage", net.Name())
		}
	}
}

// TestConvPackFollowsTile: the pack is at DefaultTile after every
// inference — rebuilt when the tile changes (as TestTrainingGoldenAt6x16
// changes it), kept when only SetSIMD toggles, which changes the kernels
// but not the tile or the packed bytes — and the packed forward equals
// the unpacked training forward bit for bit at every setting.
func TestConvPackFollowsTile(t *testing.T) {
	defer func(was tensor.TileConfig) { tensor.DefaultTile = was }(tensor.DefaultTile)
	defer tensor.SetSIMD(tensor.SetSIMD(true))
	build := tensor.DefaultTile
	t6 := tensor.TileConfig{MC: 120, KC: 256, MR: 6, NR: 16}
	t12 := tensor.TileConfig{MC: 120, KC: 256, MR: 12, NR: 32}
	net := AlexNetS(rand.New(rand.NewSource(74)))
	x := scaledBatch(rand.New(rand.NewSource(75)), 3).X
	convs := net.PerforableLayers()
	var last *tensor.PackedA
	for i, s := range []struct {
		tile tensor.TileConfig
		simd bool
	}{
		{build, true}, {build, false}, {t6, false}, {t6, true}, {t12, true}, {t12, false}, {build, true},
	} {
		tensor.DefaultTile = s.tile
		tensor.SetSIMD(s.simd)
		what := fmt.Sprintf("step %d (tile %v, simd %v)", i, s.tile, s.simd)
		sameTensor(t, what, net.ForwardWith(x, nil), net.Forward(x, true))
		for _, c := range convs {
			if p := c.pack.Load(); p == nil || p.a.Tile() != s.tile {
				t.Fatalf("%s: %s is not packed at the tile", what, c.Name())
			}
		}
		p := convs[0].pack.Load().a
		if rebuilt := p != last; i > 0 && rebuilt != (s.tile != last.Tile()) {
			t.Fatalf("%s: pack rebuilt = %v, want it rebuilt exactly when the tile changes", what, rebuilt)
		}
		last = p
	}
}

// TestConcurrentFirstInference: goroutines making the first inference on a
// fresh network at once — each may pack the weights — all get the logits
// of the unpacked forward, bit for bit. Under -race this is what shows the
// lazy pack is safe to build concurrently.
func TestConcurrentFirstInference(t *testing.T) {
	for _, build := range []func(*rand.Rand) *Sequential{AlexNetS, GoogLeNetS} {
		net := build(rand.New(rand.NewSource(76)))
		x := scaledBatch(rand.New(rand.NewSource(77)), 2).X
		const n = 4
		outs := make([]*tensor.Tensor, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				outs[i] = net.ForwardWith(x, nil)
			}()
		}
		close(start)
		wg.Wait()
		want := build(rand.New(rand.NewSource(76))).Forward(x, true)
		for i, got := range outs {
			sameTensor(t, fmt.Sprintf("%s goroutine %d", net.Name(), i), got, want)
		}
	}
}
