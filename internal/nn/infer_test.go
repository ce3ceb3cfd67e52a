package nn_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pcnn/internal/nn"
	"pcnn/internal/runtimemgr"
	"pcnn/internal/tensor"
)

// The folded inference forward has no second implementation to be compared
// with: its oracle is itself at batch 1. A column of the folded GEMM runs
// through the same K order whatever rides beside it, so every activation a
// batch-n call produces must equal, bit for bit, the one a batch-1 call on
// that sample alone produces — at every operating point of a tuned table,
// on both lowerings, at every precision.

var scaledNets = []struct {
	name  string
	build func(*rand.Rand) *nn.Sequential
}{
	{"AlexNet-S", nn.AlexNetS},
	{"VGG-S", nn.VGGS},
	{"GoogLeNet-S", nn.GoogLeNetS},
}

func randomBatch(rng *rand.Rand, n int) *tensor.Tensor {
	x := tensor.New(n, 3, nn.ScaledInputSize, nn.ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

// sample views image i of a batch as a batch of one.
func sample(x *tensor.Tensor, i int) *tensor.Tensor {
	per := x.Len() / x.Dim(0)
	return tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, x.Dim(1), x.Dim(2), x.Dim(3))
}

// tunedKeeps runs the Fig 12 tuner on an untrained network with a
// threshold it cannot cross, so the table walks all the way down to the
// minimum grids: a ladder of realistic mixed operating points.
func tunedKeeps(t *testing.T, net *nn.Sequential, probe *tensor.Tensor) [][]nn.Keep {
	t.Helper()
	tuner := &runtimemgr.Tuner{Net: net, Probe: probe, Threshold: math.Inf(1)}
	table, err := tuner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries) < 10 {
		t.Fatalf("tuner produced %d levels, want a ladder", len(table.Entries))
	}
	levels := make([][]nn.Keep, len(table.Entries))
	for l, e := range table.Entries {
		levels[l] = e.Keeps
	}
	return levels
}

// split cuts a classifier at its first FC layer into the convolutional
// trunk (everything the fold touches) and the classifier tail.
func split(net *nn.Sequential) (trunk, tail *nn.Sequential) {
	for i, l := range net.Layers {
		if _, ok := l.(*nn.FC); ok {
			feat := randomBatch(rand.New(rand.NewSource(1)), 1)
			for _, tl := range net.Layers[:i] {
				feat = tl.Forward(feat, false)
			}
			return nn.NewSequential(net.Name()+"/trunk", feat.Len(), net.Layers[:i]...),
				nn.NewSequential(net.Name()+"/tail", net.Classes, net.Layers[i:]...)
		}
	}
	panic("no FC layer")
}

func quantEngine(p tensor.Precision) *tensor.Engine {
	eng := tensor.NewEngine(tensor.Blocked, 1)
	eng.SetPrecision(p)
	return eng
}

// TestPredictWithInt8AgreesWithFP32 is the reduced-precision axis end to
// end: options built on an int8 engine return valid softmax rows whose
// top-1 picks agree with fp32 on at least 7 of 8 rows (8/8 on this seed;
// the slack absorbs kernel-level rounding drift without letting a broken
// quantized path through), and the engine travels with the call — an fp32
// call on the same shared network afterwards is bit-identical to one made
// before.
func TestPredictWithInt8AgreesWithFP32(t *testing.T) {
	net := nn.AlexNetS(rand.New(rand.NewSource(1)))
	const batch = 8
	x := tensor.New(batch, 3, nn.ScaledInputSize, nn.ScaledInputSize)
	for i := range x.Data {
		x.Data[i] = float32(i%7) * 0.1
	}
	fp32 := net.PredictWith(x, net.NewForwardOpts(nil, nil))
	int8 := net.PredictWith(x, net.NewForwardOpts(nil, quantEngine(tensor.Int8)))
	if len(int8) != batch {
		t.Fatalf("int8 run returned %d rows, want %d", len(int8), batch)
	}
	argmax := func(row []float32) int {
		best := 0
		for i, p := range row {
			if p > row[best] {
				best = i
			}
		}
		return best
	}
	agree := 0
	for i, row := range int8 {
		sum := float32(0)
		for _, p := range row {
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("int8 row %d is not a distribution (sum %v)", i, sum)
		}
		if argmax(row) == argmax(fp32[i]) {
			agree++
		}
	}
	if agree < batch-1 {
		t.Fatalf("int8 top-1 agreement %d/%d, want at least %d/%d", agree, batch, batch-1, batch)
	}
	if reflect.DeepEqual(int8, fp32) {
		t.Fatal("int8 rows equal fp32 bit for bit; the engine did not engage")
	}
	if again := net.PredictWith(x, net.NewForwardOpts(nil, nil)); !reflect.DeepEqual(again, fp32) {
		t.Fatal("fp32 rows changed after the int8 call: the engine leaked between operating points")
	}
}

func TestFoldedForwardMatchesBatchOne(t *testing.T) {
	const maxBatch = 33
	for _, sn := range scaledNets {
		t.Run(sn.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			net := sn.build(rng)
			levels := tunedKeeps(t, net, randomBatch(rng, 8))
			trunk, tail := split(net)
			x := randomBatch(rng, maxBatch)
			per := x.Len() / maxBatch
			engines := map[string]*tensor.Engine{"fp32": nil, "int8": quantEngine(tensor.Int8), "fp16": quantEngine(tensor.FP16)}
			for level, keeps := range levels {
				for prec, eng := range engines {
					// Reduced precision rides the materializing lowering at
					// every level; three levels of it are enough.
					if eng != nil && level != 0 && level != len(levels)/2 && level != len(levels)-1 {
						continue
					}
					opts := net.NewForwardOpts(keeps, eng)
					// Batch-1 oracle, once per sample. The FC tail was one
					// GEMM per batch before the fold and still is; its rows
					// are independent for M ≥ 2, but M = 1 takes the
					// matrix–vector kernel (tensor.Engine.usesBlocked),
					// which rounds differently — so the logits oracle is
					// the sample's features paired with themselves.
					var feats, logits [][]float32
					for i := 0; i < maxBatch; i++ {
						f := trunk.ForwardWith(sample(x, i), opts).Data
						feats = append(feats, f)
						pair := tensor.FromSlice(append(append([]float32(nil), f...), f...), 2, len(f), 1, 1)
						logits = append(logits, tail.ForwardWith(pair, opts).Data[:net.Classes])
					}
					for _, n := range []int{1, 3, 32, 33} {
						xb := tensor.FromSlice(x.Data[:n*per], n, x.Dim(1), x.Dim(2), x.Dim(3))
						feat := trunk.ForwardWith(xb, opts)
						for i := 0; i < n; i++ {
							for j, want := range feats[i] {
								if got := feat.Data[i*len(feats[i])+j]; got != want {
									t.Fatalf("level %d %s batch %d: sample %d feature %d = %g, batch-1 %g",
										level, prec, n, i, j, got, want)
								}
							}
						}
						if n == 1 {
							continue // M = 1: the tail's other kernel
						}
						got := net.ForwardWith(xb, opts)
						for i := 0; i < n; i++ {
							for j, want := range logits[i] {
								if got := got.Data[i*net.Classes+j]; got != want {
									t.Fatalf("level %d %s batch %d: sample %d logit %d = %g, oracle %g",
										level, prec, n, i, j, got, want)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestForwardWithMatchesMaterializedLowering is the differential test for
// the one lowering: at every level of a tuned table, ForwardWith — panels
// packed straight from the padded images, perforated or not — returns the
// bytes of a layer-by-layer forward whose conv layers materialize their
// (sampled) column matrix and multiply it as a stored operand on the same
// engine. That reference is the lowering the perforated layers ran before
// the packer learned kept lists, so the served outputs did not move.
func TestForwardWithMatchesMaterializedLowering(t *testing.T) {
	for _, sn := range scaledNets[:2] { // the purely sequential networks
		t.Run(sn.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			net := sn.build(rng)
			x := randomBatch(rng, 5)
			perforable := net.PerforableLayers()
			for level, keeps := range tunedKeeps(t, net, randomBatch(rng, 8)) {
				got := net.ForwardWith(x, net.NewForwardOpts(keeps, nil))
				want, next := x, 0
				for _, l := range net.Layers {
					conv, ok := l.(*nn.Conv)
					if !ok {
						want = l.Forward(want, false)
						continue
					}
					if perforable[next] != conv {
						t.Fatalf("perforable layer %d is not %s", next, conv.Name())
					}
					want = nn.MaterializedForward(conv, want, keeps[next], tensor.Default())
					next++
				}
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("level %d: logit %d = %g, materialized lowering %g", level, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestSetterPathIsOptionsPath: a lone Conv's Forward(x, false) under
// SetPerforation/SetEngine and a one-layer network's ForwardWith under the
// same keep and engine are one implementation, so they agree bit for bit.
// The setters configure only the layer's own call: the network computes
// the layer in full without options.
func TestSetterPathIsOptionsPath(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	conv := nn.NewConv("c", 8, 12, 12, 6, 3, 1, 1, rng)
	ho, wo := conv.OutDims()
	net := nn.NewSequential("lone", 6*ho*wo, conv)
	x := tensor.New(3, 8, 12, 12)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	keep := nn.Keep{W: (wo + 1) / 2, H: (2*ho + 2) / 3}
	eng := quantEngine(tensor.FP16)
	viaOpts := net.ForwardWith(x, net.NewForwardOpts([]nn.Keep{keep}, eng))
	plain := conv.Forward(x, false)
	conv.SetPerforation(keep.W, keep.H)
	conv.SetEngine(eng)
	viaSetters := conv.Forward(x, false)
	conv.SetEngine(nil)
	for i := range viaOpts.Data {
		if math.Float32bits(viaOpts.Data[i]) != math.Float32bits(viaSetters.Data[i]) {
			t.Fatalf("elem %d: setters %g, options %g", i, viaSetters.Data[i], viaOpts.Data[i])
		}
	}
	if reflect.DeepEqual(viaOpts.Data, plain.Data) {
		t.Fatal("options had no effect: perforated fp16 output equals the plain one")
	}
	if full := net.ForwardWith(x, nil); !reflect.DeepEqual(full.Data, plain.Data) {
		t.Fatal("the network read the layer's SetPerforation grid")
	}
}

// shrunk returns keeps that compute num/den of every perforable layer's
// output extent per axis (at least one position).
func shrunk(net *nn.Sequential, num, den int) []nn.Keep {
	var keeps []nn.Keep
	for _, l := range net.PerforableLayers() {
		ho, wo := l.OutDims()
		keeps = append(keeps, nn.Keep{W: max(wo*num/den, 1), H: max(ho*num/den, 1)})
	}
	return keeps
}

// TestConcurrentInferenceSharedNet runs one shared network from several
// goroutines at once, each at its own operating point — full, a mid-table
// level (for AlexNet-S the served base level 9 of the benchmark's table),
// the deepest level, an int8 engine — while a fifth goroutine drives a
// different network, resolving its options on every call. Every result
// must equal its single-threaded reference bit for bit; under -race this
// is what proves inference writes no layer field (Inception's branch
// widths included), that the mask cache is safe to share, and that pooled
// buffers never alias between calls.
func TestConcurrentInferenceSharedNet(t *testing.T) {
	for _, sn := range []struct {
		name  string
		build func(*rand.Rand) *nn.Sequential
		mid   func(*nn.Sequential) []nn.Keep
	}{
		{"AlexNet-S", nn.AlexNetS, func(*nn.Sequential) []nn.Keep {
			return []nn.Keep{{W: 7, H: 7}, {W: 5, H: 5}, {}, {W: 3, H: 3}, {}}
		}},
		{"GoogLeNet-S", nn.GoogLeNetS, func(net *nn.Sequential) []nn.Keep { return shrunk(net, 2, 3) }},
	} {
		t.Run(sn.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			net := sn.build(rng)
			other := sn.build(rand.New(rand.NewSource(48)))
			x := randomBatch(rng, 16)
			points := []*nn.ForwardOpts{
				net.NewForwardOpts(nil, nil),
				net.NewForwardOpts(sn.mid(net), nil),
				net.NewForwardOpts(shrunk(net, 0, 1), nil),
				net.NewForwardOpts(shrunk(net, 1, 2), quantEngine(tensor.Int8)),
			}
			refs := make([][][]float32, len(points))
			for i, o := range points {
				refs[i] = net.PredictWith(x, o)
			}
			otherKeeps := shrunk(other, 3, 4)
			otherRun := func() *tensor.Tensor {
				return other.ForwardWith(x, other.NewForwardOpts(otherKeeps, nil))
			}
			otherRef := otherRun()

			if reflect.DeepEqual(refs[0], refs[1]) || reflect.DeepEqual(refs[1], refs[2]) || reflect.DeepEqual(refs[0], refs[3]) {
				t.Fatal("two operating points classify identically; the options did not engage")
			}
			const iters = 6
			var wg sync.WaitGroup
			for i, o := range points {
				wg.Add(1)
				go func(i int, o *nn.ForwardOpts) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						if !reflect.DeepEqual(net.PredictWith(x, o), refs[i]) {
							t.Errorf("operating point %d diverged from its serial reference on iteration %d", i, it)
							return
						}
					}
				}(i, o)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					if !reflect.DeepEqual(otherRun(), otherRef) {
						t.Errorf("second network diverged on iteration %d", it)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}
