package kernels

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pcnn/internal/gpu"
	"pcnn/internal/nn"
)

// selectReference is Select before its per-tile invariants were hoisted:
// every candidate is built from scratch, its spill plan re-derives the
// occupancy, and S_kernel (then the exported SKernel) is evaluated in
// full. TestSelectMatchesReference holds Select to it bit for bit.
func selectReference(name string, m, n, k int, dev *gpu.Device) (Choice, error) {
	if n < GEMVThreshold {
		kern := BuildGEMV(name, m, n, k, dev)
		tlp := dev.OccupancyFor(kern).CTAs
		if tlp < 1 {
			return Choice{}, fmt.Errorf("kernels: vector kernel unlaunchable for %dx%dx%d on %s", m, n, k, dev.Name)
		}
		return Choice{
			Tile:   TileConfig{M: gemvBlock, N: n, BlockSize: gemvBlock, BaseRegs: kern.RegsPerThread, SharedMem: kern.SharedMemPerBlock},
			Regs:   kern.RegsPerThread,
			TLP:    tlp,
			Grid:   kern.GridSize,
			Kernel: kern,
		}, nil
	}
	var best Choice
	found := false
	for _, tile := range StandardTiles() {
		for _, cand := range Candidates(tile, dev) {
			kern := buildReference(name, tile, m, n, k, cand.Regs, dev)
			score := sKernelReference(tile, m, n, kern, cand.TLP, dev)
			if !found || score < best.Score {
				best = Choice{Tile: tile, Regs: cand.Regs, TLP: cand.TLP, Grid: kern.GridSize, Score: score, Kernel: kern}
				found = true
			}
		}
	}
	if !found {
		return Choice{}, fmt.Errorf("kernels: no launchable design point for %dx%dx%d on %s", m, n, k, dev.Name)
	}
	return best, nil
}

// buildReference is Build computed in one piece.
func buildReference(name string, tile TileConfig, m, n, k, regs int, dev *gpu.Device) gpu.Kernel {
	if regs <= 0 || regs > tile.BaseRegs {
		regs = tile.BaseRegs
	}
	tm, tn := tile.regTileEdges()
	fK := float64(k)
	block := float64(tile.BlockSize)
	fma := float64(tile.OutputsPerThread()) * fK
	sharedAccesses := float64(tm+tn) * fK
	globalLoadInsts := fK * float64(tile.M+tile.N) / block
	loopOverhead := fK/kStep*4 + 30
	storeInsts := float64(tile.OutputsPerThread())
	kern := gpu.Kernel{
		Name:              name,
		GridSize:          GridSize(m, n, tile),
		BlockSize:         tile.BlockSize,
		RegsPerThread:     regs,
		SharedMemPerBlock: tile.SharedMem,
		FMAInsts:          fma,
		OtherInsts:        sharedAccesses + globalLoadInsts + loopOverhead + storeInsts,
		GlobalBytes:       4 * (fK*float64(tile.M+tile.N)/block + float64(tile.OutputsPerThread())),
	}
	if regs < tile.BaseRegs {
		sp := PlanSpill(tile, regs, k, dev)
		kern.OtherInsts += sp.ExtraInsts()
		kern.GlobalBytes += sp.ExtraGlobalBytes()
	}
	return kern
}

// sKernelReference is S_kernel computed in one piece.
func sKernelReference(tile TileConfig, m, n int, kern gpu.Kernel, tlp int, dev *gpu.Device) float64 {
	inv := NInvocations(GridSize(m, n, tile), tlp, dev.NumSMs)
	wasteFactor := math.Max(1-REC(m, n, tile), recFloor)
	memEq := kern.GlobalBytes * float64(dev.TotalCores()) / dev.BytesPerCycle()
	costFactor := math.Max(kern.TotalInstsPerThread(), memEq)
	return wasteFactor * costFactor * float64(inv)
}

// TestSelectMatchesReference: hoisting changes no field of any Choice —
// Score to the bit — for every conv and FC GEMM of the three networks on
// the four platforms at power-of-two batches 1 to 256, and Build still
// agrees with its one-piece form at every candidate.
func TestSelectMatchesReference(t *testing.T) {
	for _, net := range nn.AllNetShapes() {
		for _, dev := range gpu.AllPlatforms() {
			for batch := 1; batch <= 256; batch *= 2 {
				for _, l := range net.Layers {
					var m, n, k int
					switch l.Kind {
					case nn.ConvLayer:
						m, n, k = l.Conv.GEMMDims(batch)
					case nn.FCLayer:
						m, n, k = l.FC.GEMMDims(batch)
					default:
						continue
					}
					got, gotErr := Select("g", m, n, k, dev)
					want, wantErr := selectReference("g", m, n, k, dev)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s/%s b%d %dx%dx%d: error %v, reference %v", net.Name, dev.Name, batch, m, n, k, gotErr, wantErr)
					}
					if got != want || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
						t.Fatalf("%s/%s b%d %dx%dx%d:\n got %+v\nwant %+v", net.Name, dev.Name, batch, m, n, k, got, want)
					}
					for _, tile := range StandardTiles() {
						for _, cand := range Candidates(tile, dev) {
							kern := Build("g", tile, m, n, k, cand.Regs, dev)
							if ref := buildReference("g", tile, m, n, k, cand.Regs, dev); kern != ref {
								t.Fatalf("%s r%d %dx%dx%d on %s: Build %+v, reference %+v", tile, cand.Regs, m, n, k, dev.Name, kern, ref)
							}
						}
					}
				}
			}
		}
	}
}

// TestCandidateTLPIsSpillOccupancy: the TLP a staircase candidate carries
// is the occupancy PlanSpill derives for its register count, so Select
// may size the spill plan at it — on the four platforms and on generated
// devices with every occupancy limiter in charge.
func TestCandidateTLPIsSpillOccupancy(t *testing.T) {
	check := func(dev *gpu.Device) bool {
		for _, tile := range standardTiles {
			for _, cand := range Candidates(tile, dev) {
				if cand.Regs <= 0 || cand.Regs >= tile.BaseRegs {
					continue
				}
				probe := gpu.Kernel{BlockSize: tile.BlockSize, RegsPerThread: cand.Regs, SharedMemPerBlock: tile.SharedMem}
				if occ := max(dev.OccupancyFor(probe).CTAs, 1); occ != cand.TLP {
					t.Logf("%s r%d on %s (regs=%d threads=%d slots=%d shmem=%d): candidate TLP %d, occupancy %d", tile, cand.Regs,
						dev.Name, dev.RegistersPerSM, dev.MaxThreadsPerSM, dev.MaxCTAsPerSM, dev.SharedMemPerSM, cand.TLP, occ)
					return false
				}
				if got, want := planSpill(tile, cand.Regs, cand.TLP, 1024, dev), PlanSpill(tile, cand.Regs, 1024, dev); got != want {
					t.Logf("%s r%d on %s: planSpill %+v, PlanSpill %+v", tile, cand.Regs, dev.Name, got, want)
					return false
				}
			}
		}
		return true
	}
	for _, dev := range gpu.AllPlatforms() {
		if !check(dev) {
			t.Fatal(dev.Name)
		}
	}
	f := func(regFile uint32, maxThreads, ctaSlots uint16, shmem uint32) bool {
		dev := gpu.K20c()
		dev.RegistersPerSM = int(regFile%(1<<18)) + 1
		dev.MaxThreadsPerSM = int(maxThreads%4096) + 1
		dev.MaxCTAsPerSM = int(ctaSlots%40) + 1
		dev.SharedMemPerSM = int(shmem%(1<<17)) + 1
		return check(dev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSelect times kernel selection over every conv and FC GEMM of
// AlexNet at batch 32 on TX1 — one compile's worth of Select calls.
func BenchmarkSelect(b *testing.B) {
	dev := gpu.TX1()
	type gemm struct{ m, n, k int }
	var gemms []gemm
	for _, l := range nn.AlexNetShape().Layers {
		switch l.Kind {
		case nn.ConvLayer:
			m, n, k := l.Conv.GEMMDims(32)
			gemms = append(gemms, gemm{m, n, k})
		case nn.FCLayer:
			m, n, k := l.FC.GEMMDims(32)
			gemms = append(gemms, gemm{m, n, k})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range gemms {
			if _, err := Select("bench", g.m, g.n, g.k, dev); err != nil {
				b.Fatal(err)
			}
		}
	}
}
