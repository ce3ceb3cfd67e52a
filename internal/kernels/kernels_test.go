package kernels

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pcnn/internal/gpu"
)

func TestStandardTilesValid(t *testing.T) {
	for _, tile := range StandardTiles() {
		if err := tile.Validate(); err != nil {
			t.Errorf("%s: %v", tile, err)
		}
	}
}

func TestTileByName(t *testing.T) {
	tile, err := TileByName("64x64")
	if err != nil {
		t.Fatal(err)
	}
	if tile.BlockSize != 256 || tile.BaseRegs != 79 || tile.SharedMem != 8468 {
		t.Fatalf("64x64 tile %+v does not match Table IV", tile)
	}
	if _, err := TileByName("7x7"); err == nil {
		t.Fatalf("unknown tile accepted")
	}
}

func TestGridSizeEq4(t *testing.T) {
	tile, _ := TileByName("128x64")
	// AlexNet CONV2 per group at batch 1: 128×729 → ⌈128/128⌉·⌈729/64⌉ = 12 (Table IV).
	if got := GridSize(128, 729, tile); got != 12 {
		t.Errorf("CONV2 grid = %d, want 12", got)
	}
	// CONV5: 128×169 → 1·3 = wait, ⌈169/64⌉ = 3... Table IV says 4 for TX1
	// including ⌈⌉ of both dims; with 128×64: ⌈128/128⌉·⌈169/64⌉ = 3.
	if got := GridSize(128, 169, tile); got != 3 {
		t.Errorf("CONV5 grid = %d, want 3", got)
	}
}

func TestRECEq9(t *testing.T) {
	tile, _ := TileByName("64x64")
	// Exact fit → 1.
	if got := REC(128, 128, tile); got != 1 {
		t.Errorf("REC exact = %v, want 1", got)
	}
	// 65×65 wastes almost 3 of 4 tiles: 65·65/(128·128).
	want := 65.0 * 65 / (128 * 128)
	if got := REC(65, 65, tile); math.Abs(got-want) > 1e-12 {
		t.Errorf("REC(65,65) = %v, want %v", got, want)
	}
}

func TestNInvocationsEq8(t *testing.T) {
	// Paper example (Section IV.B.3): GridSize 40, optTLP 3, 10 SMs → 2.
	if got := NInvocations(40, 3, 10); got != 2 {
		t.Errorf("NInvocations(40,3,10) = %d, want 2", got)
	}
	if got := NInvocations(40, 3, 7); got != 2 {
		t.Errorf("NInvocations(40,3,7) = %d, want 2", got)
	}
	if got := NInvocations(0, 3, 7); got != 0 {
		t.Errorf("NInvocations(0,…) = %d, want 0", got)
	}
}

func TestMinRegs(t *testing.T) {
	// 65536/2048 = 32, the paper's minReg on K20.
	if got := MinRegs(gpu.K20c()); got != 32 {
		t.Fatalf("MinRegs(K20c) = %d, want 32", got)
	}
}

// Fig 9: for the 128×128 tile on K20 (curReg 127, minReg 32), TLP forms a
// staircase from 2 up to 8 CTAs and candidate pruning keeps the rightmost
// point of each stair.
func TestFig9Staircase(t *testing.T) {
	dev := gpu.K20c()
	tile, _ := TileByName("128x128")
	stairs := Staircase(tile, dev)
	if stairs[0].Regs != 32 || stairs[len(stairs)-1].Regs != 127 {
		t.Fatalf("staircase spans regs %d..%d, want 32..127", stairs[0].Regs, stairs[len(stairs)-1].Regs)
	}
	// TLP must be non-increasing in register count.
	for i := 1; i < len(stairs); i++ {
		if stairs[i].TLP > stairs[i-1].TLP {
			t.Fatalf("TLP increased with more registers at %d", stairs[i].Regs)
		}
	}
	cands := Candidates(tile, dev)
	if len(cands) < 4 {
		t.Fatalf("only %d candidates, want several stairs", len(cands))
	}
	// First candidate: highest registers (lowest TLP); register counts
	// strictly decrease and TLPs strictly increase along the list.
	for i := 1; i < len(cands); i++ {
		if cands[i].Regs >= cands[i-1].Regs || cands[i].TLP <= cands[i-1].TLP {
			t.Fatalf("candidates not strictly ordered: %+v", cands)
		}
	}
	// Each candidate is the *rightmost* point of its stair: one more
	// register drops the TLP.
	for _, c := range cands[1:] { // skip the curReg point
		k := gpu.Kernel{BlockSize: tile.BlockSize, RegsPerThread: c.Regs + 1, SharedMemPerBlock: tile.SharedMem}
		if dev.OccupancyFor(k).CTAs >= c.TLP {
			t.Fatalf("regs %d is not rightmost for TLP %d", c.Regs, c.TLP)
		}
	}
}

func TestSpillNoneAtBaseRegs(t *testing.T) {
	tile, _ := TileByName("128x128")
	p := PlanSpill(tile, tile.BaseRegs, 1200, gpu.K20c())
	if p.Spilled != 0 || p.Cost() != 0 {
		t.Fatalf("spill at BaseRegs: %+v", p)
	}
}

func TestSpillPrefersSharedMemory(t *testing.T) {
	dev := gpu.K20c()
	// 64×64 on K20 is register-limited at TLP 3, leaving ~7.9KB of spare
	// shared memory per CTA — ample room for a small spill.
	tile, _ := TileByName("64x64")
	p := PlanSpill(tile, tile.BaseRegs-4, 1200, dev)
	if p.Spilled != 4 {
		t.Fatalf("Spilled = %d, want 4", p.Spilled)
	}
	if p.ToShared != 4 || p.ToGlobal != 0 {
		t.Fatalf("small spill should fit in spare shared memory: %+v", p)
	}
}

func TestSpillOverflowsToGlobal(t *testing.T) {
	dev := gpu.K20c()
	tile, _ := TileByName("128x128") // big shmem per block
	p := PlanSpill(tile, MinRegs(dev), 1200, dev)
	if p.ToGlobal == 0 {
		t.Fatalf("deep spill of %d regs should overflow to global: %+v", p.Spilled, p)
	}
	if p.ToShared+p.ToGlobal != p.Spilled {
		t.Fatalf("spill accounting broken: %+v", p)
	}
}

func TestSpillCostMonotone(t *testing.T) {
	dev := gpu.K20c()
	tile, _ := TileByName("128x128")
	prev := -1.0
	for regs := tile.BaseRegs; regs >= MinRegs(dev); regs -= 8 {
		c := PlanSpill(tile, regs, 1200, dev).Cost()
		if c < prev {
			t.Fatalf("spill cost decreased when spilling more (regs %d)", regs)
		}
		prev = c
	}
}

func TestBuildKernelShape(t *testing.T) {
	dev := gpu.K20c()
	tile, _ := TileByName("64x64")
	k := Build("k", tile, 128, 729, 1200, tile.BaseRegs, dev)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.GridSize != GridSize(128, 729, tile) {
		t.Fatalf("grid %d, want %d", k.GridSize, GridSize(128, 729, tile))
	}
	if k.BlockSize != 256 || k.RegsPerThread != 79 {
		t.Fatalf("kernel resources %+v do not match tile", k)
	}
	// FMA work per thread: 16 outputs × K.
	if want := 16.0 * 1200; k.FMAInsts != want {
		t.Fatalf("FMAInsts = %v, want %v", k.FMAInsts, want)
	}
}

// Fig 6: computation density (FMA fraction) grows with tile size.
func TestFig6DensityOrdering(t *testing.T) {
	dev := gpu.K20c()
	density := func(name string) float64 {
		tile, err := TileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return Build("d", tile, 512, 4096, 1200, tile.BaseRegs, dev).FMAFraction()
	}
	d32 := density("32x32")
	d64 := density("64x64")
	d128 := density("128x128")
	if !(d32 < d64 && d64 < d128) {
		t.Fatalf("density ordering violated: 32×32=%.3f 64×64=%.3f 128×128=%.3f", d32, d64, d128)
	}
}

func TestBuildWithSpillAddsOverhead(t *testing.T) {
	dev := gpu.K20c()
	tile, _ := TileByName("128x128")
	base := Build("b", tile, 512, 512, 1200, tile.BaseRegs, dev)
	spilled := Build("s", tile, 512, 512, 1200, 64, dev)
	if spilled.OtherInsts <= base.OtherInsts {
		t.Fatalf("spilled kernel has no extra instructions")
	}
	if spilled.RegsPerThread != 64 {
		t.Fatalf("regs = %d, want 64", spilled.RegsPerThread)
	}
	if dev.OccupancyFor(spilled).CTAs <= dev.OccupancyFor(base).CTAs {
		t.Fatalf("spilling did not raise occupancy")
	}
}

func TestSelectReturnsLaunchableKernel(t *testing.T) {
	for _, dev := range gpu.AllPlatforms() {
		c, err := Select("sel", 128, 729, 1200, dev)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if dev.OccupancyFor(c.Kernel).CTAs < 1 {
			t.Fatalf("%s: selected unlaunchable kernel %s", dev.Name, c)
		}
		if c.TLP < 1 || c.Grid < 1 {
			t.Fatalf("%s: bad choice %+v", dev.Name, c)
		}
	}
}

// Selection should favour smaller tiles for tiny result matrices (where
// big tiles waste computation) and big tiles for huge ones (density).
func TestSelectAdaptsToMatrixSize(t *testing.T) {
	dev := gpu.K20c()
	small, err := Select("small", 32, 96, 1200, dev)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Select("big", 1024, 16384, 1200, dev)
	if err != nil {
		t.Fatal(err)
	}
	if small.Tile.M*small.Tile.N > big.Tile.M*big.Tile.N {
		t.Fatalf("small matrix chose bigger tile (%s) than big matrix (%s)", small.Tile, big.Tile)
	}
}

func TestLibraryTileChoicesTableIV(t *testing.T) {
	k20, tx1 := gpu.K20c(), gpu.TX1()
	if got := CuBLAS.Tile(k20).String(); got != "64x64" {
		t.Errorf("cuBLAS on K20 = %s, want 64x64", got)
	}
	if got := CuDNN.Tile(k20).String(); got != "64x64" {
		t.Errorf("cuDNN on K20 = %s, want 64x64", got)
	}
	if got := CuBLAS.Tile(tx1).String(); got != "128x64" {
		t.Errorf("cuBLAS on TX1 = %s, want 128x64", got)
	}
	if got := CuDNN.Tile(tx1).String(); got != "32x32" {
		t.Errorf("cuDNN on TX1 = %s, want 32x32", got)
	}
	if got := Nervana.Tile(tx1).String(); got != "128x128" {
		t.Errorf("Nervana on TX1 = %s, want 128x128", got)
	}
}

func TestNervanaBatchRounding(t *testing.T) {
	if got := Nervana.RoundBatch(1); got != 32 {
		t.Errorf("Nervana.RoundBatch(1) = %d, want 32", got)
	}
	if got := Nervana.RoundBatch(33); got != 64 {
		t.Errorf("Nervana.RoundBatch(33) = %d, want 64", got)
	}
	if got := CuBLAS.RoundBatch(1); got != 1 {
		t.Errorf("cuBLAS.RoundBatch(1) = %d, want 1", got)
	}
	if got := CuBLAS.RoundBatch(0); got != 1 {
		t.Errorf("cuBLAS.RoundBatch(0) = %d, want 1", got)
	}
}

func TestLibraryKernelValidates(t *testing.T) {
	for _, lib := range AllLibraries() {
		for _, dev := range gpu.AllPlatforms() {
			k := lib.Kernel("t", 128, 729, 1200, dev)
			if err := k.Validate(); err != nil {
				t.Errorf("%s on %s: %v", lib, dev.Name, err)
			}
		}
	}
}

// Property: REC ∈ (0, 1]; GridSize ≥ 1; NInvocations ≥ 1 for non-empty
// grids.
func TestMetricsRangeProperty(t *testing.T) {
	tiles := StandardTiles()
	f := func(m16, n16 uint16, tidx uint8) bool {
		m := int(m16%2048) + 1
		n := int(n16%4096) + 1
		tile := tiles[int(tidx)%len(tiles)]
		rec := REC(m, n, tile)
		if rec <= 0 || rec > 1+1e-12 {
			return false
		}
		g := GridSize(m, n, tile)
		if g < 1 {
			return false
		}
		return NInvocations(g, 4, 13) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Select is deterministic.
func TestSelectDeterministicProperty(t *testing.T) {
	dev := gpu.TX1()
	f := func(m16, n16 uint16) bool {
		m := int(m16%512) + 1
		n := int(n16%2048) + 1
		a, err1 := Select("a", m, n, 576, dev)
		b, err2 := Select("b", m, n, 576, dev)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return a.Tile == b.Tile && a.Regs == b.Regs && a.TLP == b.TLP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pruneStaircase is the definition Candidates used to be computed by:
// walk the full staircase from the most registers down and keep the first
// point of every new, launchable TLP level.
func pruneStaircase(tile TileConfig, dev *gpu.Device) []StairPoint {
	stairs := Staircase(tile, dev)
	var out []StairPoint
	for i := len(stairs) - 1; i >= 0; i-- {
		p := stairs[i]
		if p.TLP < 1 {
			continue
		}
		if len(out) == 0 || p.TLP > out[len(out)-1].TLP {
			out = append(out, p)
		}
	}
	return out
}

// TestCandidatesMatchPrunedStaircase: the level-jumping walk returns
// exactly the pruned staircase — on the four platforms, and on generated
// devices whose register file, thread limit, CTA slots and shared memory
// put every one of the four occupancy limiters in charge, including the
// devices no tile fits on (both sides nil).
func TestCandidatesMatchPrunedStaircase(t *testing.T) {
	for _, dev := range gpu.AllPlatforms() {
		for _, tile := range StandardTiles() {
			if got, want := Candidates(tile, dev), pruneStaircase(tile, dev); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: Candidates %v, pruned staircase %v", tile, dev.Name, got, want)
			}
		}
	}
	f := func(regFile uint32, maxThreads, ctaSlots uint16, shmem uint32) bool {
		dev := gpu.K20c()
		dev.RegistersPerSM = int(regFile%(1<<18)) + 1
		dev.MaxThreadsPerSM = int(maxThreads%4096) + 1
		dev.MaxCTAsPerSM = int(ctaSlots%40) + 1
		dev.SharedMemPerSM = int(shmem%(1<<17)) + 1
		for _, tile := range StandardTiles() {
			if got, want := Candidates(tile, dev), pruneStaircase(tile, dev); !reflect.DeepEqual(got, want) {
				t.Logf("%s regs=%d threads=%d slots=%d shmem=%d: Candidates %v, pruned staircase %v", tile,
					dev.RegistersPerSM, dev.MaxThreadsPerSM, dev.MaxCTAsPerSM, dev.SharedMemPerSM, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
