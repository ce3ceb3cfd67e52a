package analytic

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pcnn/internal/gpu"
	"pcnn/internal/kernels"
	"pcnn/internal/nn"
)

func TestCpE(t *testing.T) {
	dev := gpu.K20c()
	// Running exactly at peak for 1ms.
	peak := dev.PeakGFLOPs() * 1e9
	if got := CpE(peak*1e-3, 1, dev); math.Abs(got-1) > 1e-9 {
		t.Fatalf("CpE at peak = %v, want 1", got)
	}
	if got := CpE(1e9, 0, dev); got != 0 {
		t.Fatalf("CpE with zero time = %v, want 0", got)
	}
}

func TestUtilEq6(t *testing.T) {
	cases := []struct {
		grid, max int
		want      float64
	}{
		{40, 40, 1},
		{20, 40, 0.5},
		{41, 40, 41.0 / 80},
		{80, 40, 1},
		{0, 40, 0},
		{40, 0, 0},
	}
	for _, c := range cases {
		if got := Util(c.grid, c.max); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Util(%d,%d) = %v, want %v", c.grid, c.max, got, c.want)
		}
	}
}

func TestOptSMEq11(t *testing.T) {
	// Paper example: GridSize 40, optTLP 3, 10 SMs → optSM 7.
	if got := OptSM(40, 3, 10); got != 7 {
		t.Fatalf("OptSM(40,3,10) = %d, want 7", got)
	}
	// Saturated grid needs every SM.
	if got := OptSM(1000, 2, 10); got != 10 {
		t.Fatalf("OptSM(1000,2,10) = %d, want 10", got)
	}
	// Tiny grid needs few SMs.
	if got := OptSM(2, 2, 10); got != 1 {
		t.Fatalf("OptSM(2,2,10) = %d, want 1", got)
	}
}

// Property: OptSM preserves the invocation count and is minimal.
func TestOptSMMinimalProperty(t *testing.T) {
	f := func(g16 uint16, tlp8, sm8 uint8) bool {
		grid := int(g16%500) + 1
		tlp := int(tlp8%8) + 1
		numSMs := int(sm8%23) + 1
		s := OptSM(grid, tlp, numSMs)
		if s < 1 || s > numSMs {
			return false
		}
		full := kernels.NInvocations(grid, tlp, numSMs)
		if kernels.NInvocations(grid, tlp, s) != full {
			return false
		}
		return s == 1 || kernels.NInvocations(grid, tlp, s-1) != full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustBatchEq13(t *testing.T) {
	if got := AdjustBatch(100, 200, 100); got != 50 {
		t.Fatalf("AdjustBatch halving = %d, want 50", got)
	}
	if got := AdjustBatch(100, 50, 100); got != 100 {
		t.Fatalf("AdjustBatch should not grow the batch: %d", got)
	}
	if got := AdjustBatch(4, 10000, 1); got != 1 {
		t.Fatalf("AdjustBatch floor = %d, want 1", got)
	}
}

func TestPredictTimePositiveAndMonotone(t *testing.T) {
	dev := gpu.K20c()
	c, err := kernels.Select("l", 128, 729, 1200, dev)
	if err != nil {
		t.Fatal(err)
	}
	t1 := PredictTimeMS(c, dev.NumSMs, dev)
	if t1 <= 0 {
		t.Fatalf("predicted time %v, want positive", t1)
	}
	// Bigger grid (batch 16) takes at least as long.
	c16, err := kernels.Select("l", 128, 729*16, 1200, dev)
	if err != nil {
		t.Fatal(err)
	}
	t16 := PredictTimeMS(c16, dev.NumSMs, dev)
	if t16 < t1 {
		t.Fatalf("time decreased with batch: %v vs %v", t16, t1)
	}
}

func TestPredictTimeFewerSMsSlower(t *testing.T) {
	dev := gpu.K20c()
	c, err := kernels.Select("l", 512, 8192, 1200, dev)
	if err != nil {
		t.Fatal(err)
	}
	all := PredictTimeMS(c, dev.NumSMs, dev)
	half := PredictTimeMS(c, dev.NumSMs/2, dev)
	if half < all {
		t.Fatalf("halving SMs sped up the kernel: %v vs %v", half, all)
	}
}

func TestNetworkGEMMs(t *testing.T) {
	net := nn.AlexNetShape()
	gemms := NetworkGEMMs(net, 1)
	// 5 conv + 3 FC layers.
	if len(gemms) != 8 {
		t.Fatalf("AlexNet GEMMs = %d, want 8", len(gemms))
	}
	conv2 := gemms[1]
	if conv2.M != 128 || conv2.N != 729 || conv2.Groups != 2 {
		t.Fatalf("CONV2 GEMM %+v, want 128×729 ×2 groups", conv2)
	}
	if !conv2.IsConv || gemms[5].IsConv {
		t.Fatalf("IsConv flags wrong: %+v / %+v", conv2, gemms[5])
	}
	total := 0.0
	for _, g := range gemms {
		total += g.EffectiveFLOPs
	}
	if math.Abs(total-net.TotalFLOPsPerImage()) > 1 {
		t.Fatalf("GEMM FLOPs %.3g != network FLOPs %.3g", total, net.TotalFLOPsPerImage())
	}
}

// Table III's exact run/OOM pattern: on TX1, cuDNN fails GoogLeNet@64 and
// VGG@32 and Nervana fails VGG@32; every other (net, batch, lib, device)
// cell of the table runs.
func TestFitsMemoryTableIIIOOMs(t *testing.T) {
	batches := map[string]int{"AlexNet": 128, "GoogLeNet": 64, "VGGNet": 32}
	oom := map[string]bool{
		"TX1/GoogLeNet/cuDNN": true,
		"TX1/VGGNet/cuDNN":    true,
		"TX1/VGGNet/Nervana":  true,
	}
	for _, dev := range []*gpu.Device{gpu.TitanX(), gpu.GTX970m(), gpu.TX1()} {
		for _, net := range nn.AllNetShapes() {
			for _, lib := range kernels.AllLibraries() {
				key := dev.Name + "/" + net.Name + "/" + lib.String()
				fits := FitsMemoryLib(net, batches[net.Name], dev, lib)
				if fits == oom[key] {
					t.Errorf("%s at batch %d: fits=%v, want OOM=%v", key, batches[net.Name], fits, oom[key])
				}
			}
		}
	}
	// Non-batched inference fits everywhere except Nervana's VGG on TX1:
	// Nervana's minimum batch is 32, so its "non-batching" configuration
	// is the same one that OOMs in the batched column (Table III marks it
	// x in both columns).
	for _, dev := range gpu.AllPlatforms() {
		for _, net := range nn.AllNetShapes() {
			for _, lib := range kernels.AllLibraries() {
				wantFit := !(dev.Name == "TX1" && net.Name == "VGGNet" && lib == kernels.Nervana)
				if got := FitsMemoryLib(net, lib.RoundBatch(1), dev, lib); got != wantFit {
					t.Errorf("%s/%s/%s: non-batched fits=%v, want %v", dev.Name, net.Name, lib, got, wantFit)
				}
			}
		}
	}
}

// TestMaxFitBatchMatchesDecrementLoop: the closed-form ceiling is the
// batch the decrement loop it replaced stops at — the largest b that
// FitsMemory — for every network on the four platforms and on devices so
// small that the ceiling is 0 or a handful of images, at every b up to
// 1024.
func TestMaxFitBatchMatchesDecrementLoop(t *testing.T) {
	devs := gpu.AllPlatforms()
	for _, mib := range []int64{1, 64, 200, 600} {
		d := gpu.TX1()
		d.Name, d.GlobalMemBytes, d.UsableMemFrac = fmt.Sprintf("TX1-%dMiB", mib), mib<<20, 1
		devs = append(devs, d)
	}
	for _, dev := range devs {
		for _, net := range nn.AllNetShapes() {
			fit := MaxFitBatch(net, dev)
			for b := 1; b <= MaxSearchBatch; b++ {
				if FitsMemory(net, b, dev) != (b <= fit) {
					t.Fatalf("%s on %s: MaxFitBatch %d, FitsMemory(%d) = %v", net.Name, dev.Name, fit, b, FitsMemory(net, b, dev))
				}
			}
			loop := MaxSearchBatch
			for loop > 0 && !FitsMemory(net, loop, dev) {
				loop--
			}
			if min(fit, MaxSearchBatch) != loop {
				t.Fatalf("%s on %s: MaxFitBatch %d, decrement loop from %d stops at %d", net.Name, dev.Name, fit, MaxSearchBatch, loop)
			}
		}
	}
}

func TestNetworkRunProducesResults(t *testing.T) {
	dev := gpu.TX1()
	results, agg, err := NetworkRun(nn.AlexNetShape(), 1, kernels.CuBLAS, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d layer results, want 8", len(results))
	}
	if agg.TimeMS <= 0 || agg.EnergyJ <= 0 {
		t.Fatalf("aggregate %+v not positive", agg)
	}
}

func TestNetworkRunOOM(t *testing.T) {
	_, _, err := NetworkRun(nn.VGGNetShape(), 32, kernels.Nervana, gpu.TX1())
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// Inference prefers small batches (Section III.B): the per-batch latency
// at batch 128 is far above the non-batched latency.
func TestBatchingRaisesLatency(t *testing.T) {
	dev := gpu.TitanX()
	net := nn.AlexNetShape()
	_, one, err := NetworkRun(net, 1, kernels.CuBLAS, dev)
	if err != nil {
		t.Fatal(err)
	}
	_, batched, err := NetworkRun(net, 128, kernels.CuBLAS, dev)
	if err != nil {
		t.Fatal(err)
	}
	if batched.TimeMS < 10*one.TimeMS {
		t.Fatalf("batch-128 latency %v not ≫ batch-1 latency %v", batched.TimeMS, one.TimeMS)
	}
	// …but batching still wins on throughput (images/sec).
	if 128/batched.TimeMS < 1/one.TimeMS {
		t.Fatalf("batching lost throughput: %v vs %v img/ms", 128/batched.TimeMS, 1/one.TimeMS)
	}
}

func TestThroughputCurveSaturates(t *testing.T) {
	dev := gpu.TX1()
	curve, err := ThroughputCurve(nn.AlexNetShape(), dev, []int{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 5 {
		t.Fatalf("curve too short: %d points", len(curve))
	}
	// Throughput grows early…
	if curve[1].ImagesPerSec <= curve[0].ImagesPerSec {
		t.Fatalf("throughput not growing at small batches: %+v", curve[:2])
	}
	// …and the tail gains little (saturation).
	last, prev := curve[len(curve)-1], curve[len(curve)-2]
	if last.ImagesPerSec > prev.ImagesPerSec*1.5 {
		t.Fatalf("throughput still growing fast at max batch: %v → %v", prev.ImagesPerSec, last.ImagesPerSec)
	}
	if knee := KneeBatch(curve, 0.95); knee <= 1 || knee > 64 {
		t.Fatalf("knee batch = %d out of expected range", knee)
	}
}

func TestOptimalBackgroundBatchOrdering(t *testing.T) {
	net := nn.AlexNetShape()
	tx1, k20 := gpu.TX1(), gpu.K20c()
	bTX1, satTX1, err := OptimalBackgroundBatch(net, tx1)
	if err != nil {
		t.Fatal(err)
	}
	bK20, _, err := OptimalBackgroundBatch(net, k20)
	if err != nil {
		t.Fatal(err)
	}
	if !satTX1 {
		t.Fatalf("TX1 background batch did not saturate (got %d)", bTX1)
	}
	// Bigger devices need bigger batches to saturate (Fig 8: the optimal
	// batch varies across platforms).
	if bK20 <= bTX1 {
		t.Fatalf("K20 optimal batch %d should exceed TX1's %d", bK20, bTX1)
	}
}

// Table V's structure: Util at batch 1 decreases from CONV1 to CONV5 on
// K20, and later layers demand per-layer treatment.
func TestTableVUtilDecreasesAcrossLayers(t *testing.T) {
	dev := gpu.K20c()
	gemms := NetworkGEMMs(nn.AlexNetShape(), 1)
	var utils []float64
	for _, g := range gemms[:5] {
		lib := kernels.CuBLAS
		k := lib.Kernel(g.Name, g.M, g.N, g.K, dev)
		k.GridSize *= g.Groups
		utils = append(utils, Util(k.GridSize, dev.MaxBlocks(k)))
	}
	if utils[0] <= utils[4] {
		t.Fatalf("CONV1 Util %v should exceed CONV5 Util %v", utils[0], utils[4])
	}
	for i, u := range utils {
		if u <= 0 || u > 1 {
			t.Fatalf("CONV%d Util %v out of range", i+1, u)
		}
	}
	// CONV5 is badly underutilized at batch 1 (paper: 0.15 on K20).
	if utils[4] > 0.5 {
		t.Fatalf("CONV5 Util %v, want < 0.5 (severe underutilization)", utils[4])
	}
}
