package compile

import (
	"math"
	"sync"
	"testing"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// predictPlans caches one compiled plan per (net, dev) pair so the fuzz
// target does not recompile on every input.
var predictPlans struct {
	sync.Mutex
	m map[[2]int]*Plan
}

func planForFuzz(t testing.TB, netIdx, devIdx int) *Plan {
	nets := nn.AllNetShapes()
	devs := gpu.AllPlatforms()
	netIdx %= len(nets)
	devIdx %= len(devs)
	key := [2]int{netIdx, devIdx}
	predictPlans.Lock()
	defer predictPlans.Unlock()
	if predictPlans.m == nil {
		predictPlans.m = map[[2]int]*Plan{}
	}
	if p, ok := predictPlans.m[key]; ok {
		return p
	}
	p, err := Compile(nets[netIdx], devs[devIdx], satisfaction.ImageTagging())
	if err != nil {
		t.Fatalf("compile %s/%s: %v", nets[netIdx].Name, devs[devIdx].Name, err)
	}
	predictPlans.m[key] = p
	return p
}

// keepMap perforates every conv layer to the same keep fraction.
func keepMap(p *Plan, frac float64) map[string]float64 {
	if frac >= 1 {
		return nil
	}
	keep := map[string]float64{}
	for _, l := range p.Layers {
		if l.GEMM.IsConv {
			keep[l.Name] = frac
		}
	}
	return keep
}

// TestPredictMSAnchor pins the model to the plan: evaluated at the plan's
// own batch with no perforation, PredictMS reproduces the compiler's
// end-to-end estimate bit for bit.
func TestPredictMSAnchor(t *testing.T) {
	for _, net := range nn.AllNetShapes() {
		for _, dev := range gpu.AllPlatforms() {
			p, err := Compile(net, dev, satisfaction.ImageTagging())
			if err != nil {
				t.Fatalf("%s/%s: %v", net.Name, dev.Name, err)
			}
			if got := PredictMS(p, p.Batch, nil); got != p.PredictedMS {
				t.Errorf("%s/%s: PredictMS(p, %d, nil) = %v, want plan's %v",
					net.Name, dev.Name, p.Batch, got, p.PredictedMS)
			}
		}
	}
}

// TestPredictMSMonotoneBatch sweeps batch sizes on every (net, dev) pair:
// with the design point held fixed, predicted time never decreases as the
// batch grows.
func TestPredictMSMonotoneBatch(t *testing.T) {
	for _, net := range nn.AllNetShapes() {
		for _, dev := range gpu.AllPlatforms() {
			p, err := Compile(net, dev, satisfaction.ImageTagging())
			if err != nil {
				t.Fatalf("%s/%s: %v", net.Name, dev.Name, err)
			}
			prev := 0.0
			for b := 1; b <= 64; b++ {
				v := PredictMS(p, b, nil)
				if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("%s/%s b=%d: PredictMS = %v", net.Name, dev.Name, b, v)
				}
				if v < prev {
					t.Errorf("%s/%s: PredictMS(%d)=%v < PredictMS(%d)=%v",
						net.Name, dev.Name, b, v, b-1, prev)
				}
				prev = v
			}
		}
	}
}

// TestPredictMSPerforation: shrinking conv layers' keep fraction never
// raises the prediction, and a perforated prediction stays positive.
func TestPredictMSPerforation(t *testing.T) {
	p := planForFuzz(t, 0, 0)
	full := PredictMS(p, p.Batch, nil)
	prev := full
	for _, frac := range []float64{0.9, 0.7, 0.5, 0.3, 0.1} {
		v := PredictMS(p, p.Batch, keepMap(p, frac))
		if v > prev {
			t.Errorf("keep %.1f: PredictMS %v exceeds looser point %v", frac, v, prev)
		}
		if !(v > 0) {
			t.Errorf("keep %.1f: PredictMS %v not positive", frac, v)
		}
		prev = v
	}
}

// FuzzPredictMS is the Eq 12 property suite over randomized valid
// configurations: for any (network, device) plan, any pair of batch
// sizes and any uniform conv keep fraction,
//
//   - PredictMS is positive and finite,
//   - monotone non-decreasing in batch size,
//   - monotone non-decreasing in layer count (longer prefixes of the
//     same plan cost at least as much), and
//   - anchored to the plan (PredictMS(p, p.Batch, nil) == p.PredictedMS).
func FuzzPredictMS(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(1), uint16(8), uint8(100), uint8(3))
	f.Add(uint8(1), uint8(1), uint16(4), uint16(64), uint8(50), uint8(1))
	f.Add(uint8(2), uint8(2), uint16(33), uint16(34), uint8(80), uint8(7))
	f.Add(uint8(0), uint8(3), uint16(200), uint16(7), uint8(10), uint8(0))
	f.Add(uint8(2), uint8(3), uint16(511), uint16(512), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, netSel, devSel uint8, bA, bB uint16, keepPct, prefixSel uint8) {
		p := planForFuzz(t, int(netSel), int(devSel))
		lo, hi := int(bA%512)+1, int(bB%512)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		frac := float64(keepPct%100+1) / 100 // (0, 1]
		keep := keepMap(p, frac)

		vLo := PredictMS(p, lo, keep)
		vHi := PredictMS(p, hi, keep)
		for b, v := range map[int]float64{lo: vLo, hi: vHi} {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("PredictMS(%s/%s, b=%d, keep=%.2f) = %v",
					p.Net.Name, p.Dev.Name, b, frac, v)
			}
		}
		// The per-layer terms are individually monotone in the grid; one
		// relative ulp of slack absorbs the optSM cancellation rounding.
		if vLo > vHi*(1+1e-12) {
			t.Errorf("not monotone in batch: PredictMS(%s/%s, %d)=%v > PredictMS(%d)=%v (keep %.2f)",
				p.Net.Name, p.Dev.Name, lo, vLo, hi, vHi, frac)
		}

		// Layer-count monotonicity: evaluate successive prefixes of the
		// plan at the same batch; each added layer may only add time.
		k := int(prefixSel)%len(p.Layers) + 1
		prefix := *p
		prefix.Layers = p.Layers[:k]
		vPrefix := PredictMS(&prefix, lo, keep)
		if vPrefix > vLo*(1+1e-12) {
			t.Errorf("not monotone in layer count: %d-layer prefix %v > full %d-layer %v",
				k, vPrefix, len(p.Layers), vLo)
		}
		if k < len(p.Layers) {
			longer := *p
			longer.Layers = p.Layers[:k+1]
			if vNext := PredictMS(&longer, lo, keep); vNext < vPrefix {
				t.Errorf("not monotone in layer count: %d layers %v < %d layers %v",
					k+1, vNext, k, vPrefix)
			}
		}

		if got := PredictMS(p, p.Batch, nil); got != p.PredictedMS {
			t.Errorf("anchor broken: PredictMS(p, %d, nil) = %v, want %v",
				p.Batch, got, p.PredictedMS)
		}
	})
}
