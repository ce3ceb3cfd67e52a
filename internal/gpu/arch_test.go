package gpu

import "testing"

func TestAllPlatformsValidate(t *testing.T) {
	for _, d := range AllPlatforms() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestPlatformTableII(t *testing.T) {
	// Core counts and classes from Table II of the paper.
	cases := []struct {
		name  string
		cores int
		class PlatformClass
	}{
		{"K20c", 2496, Server},
		{"TitanX", 3072, Desktop},
		{"GTX970m", 1280, Notebook},
		{"TX1", 256, Mobile},
	}
	for _, c := range cases {
		d := PlatformByName(c.name)
		if d == nil {
			t.Fatalf("platform %s not found", c.name)
		}
		if got := d.TotalCores(); got != c.cores {
			t.Errorf("%s: TotalCores = %d, want %d", c.name, got, c.cores)
		}
		if d.Class != c.class {
			t.Errorf("%s: Class = %s, want %s", c.name, d.Class, c.class)
		}
	}
}

func TestPlatformByNameUnknown(t *testing.T) {
	if d := PlatformByName("GTX480"); d != nil {
		t.Fatalf("unknown platform returned %v", d)
	}
}

func TestPeakGFLOPs(t *testing.T) {
	// K20c: 2 × 706 MHz × 2496 cores = 3524.35 GFLOP/s.
	d := K20c()
	got := d.PeakGFLOPs()
	want := 2 * 706e6 * 2496 / 1e9
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("PeakGFLOPs = %v, want %v", got, want)
	}
}

func TestCyclesMSRoundTrip(t *testing.T) {
	d := TX1()
	ms := 12.5
	if got := d.CyclesToMS(ms * d.ClockMHz * 1e3); got != ms {
		t.Fatalf("round trip = %v, want %v", got, ms)
	}
}

// Occupancy for the Table IV kernels. The K20 SGEMM rows of Table IV
// (block 256, 79 regs, 8468B shmem) give #blocks(register)=39 and
// #blocks(shmem)=65 device-wide, i.e. 3 and 5 per SM.
func TestOccupancyTableIVK20(t *testing.T) {
	d := K20c()
	k := Kernel{Name: "sgemm64x64", BlockSize: 256, RegsPerThread: 79, SharedMemPerBlock: 8468}
	o := d.OccupancyFor(k)
	if o.ByRegs != 3 {
		t.Errorf("ByRegs = %d, want 3", o.ByRegs)
	}
	if o.BySharedM != 5 {
		t.Errorf("BySharedM = %d, want 5", o.BySharedM)
	}
	if o.CTAs != 3 || o.Limiter != "registers" {
		t.Errorf("CTAs = %d (%s), want 3 (registers)", o.CTAs, o.Limiter)
	}
	if mb := d.NumSMs * o.ByRegs; mb != 39 {
		t.Errorf("device-wide register blocks = %d, want 39 (Table IV)", mb)
	}
	if mb := d.NumSMs * o.BySharedM; mb != 65 {
		t.Errorf("device-wide shmem blocks = %d, want 65 (Table IV)", mb)
	}
}

func TestOccupancyTX1cuBLAS(t *testing.T) {
	d := TX1()
	k := Kernel{Name: "sgemm128x64", BlockSize: 128, RegsPerThread: 120, SharedMemPerBlock: 12544}
	o := d.OccupancyFor(k)
	// 65536/(128·120) = 4 by registers, 49152/12544 = 3 by shared memory.
	if o.ByRegs != 4 {
		t.Errorf("ByRegs = %d, want 4", o.ByRegs)
	}
	if o.BySharedM != 3 {
		t.Errorf("BySharedM = %d, want 3", o.BySharedM)
	}
	if o.CTAs != 3 || o.Limiter != "shared memory" {
		t.Errorf("CTAs = %d (%s), want 3 (shared memory)", o.CTAs, o.Limiter)
	}
}

func TestOccupancyThreadLimited(t *testing.T) {
	d := K20c()
	k := Kernel{BlockSize: 1024, RegsPerThread: 16, SharedMemPerBlock: 0}
	o := d.OccupancyFor(k)
	if o.CTAs != 2 || o.Limiter != "threads" {
		t.Fatalf("CTAs = %d (%s), want 2 (threads)", o.CTAs, o.Limiter)
	}
}

func TestOccupancyCTASlotLimited(t *testing.T) {
	d := K20c()
	k := Kernel{BlockSize: 64, RegsPerThread: 8, SharedMemPerBlock: 0}
	o := d.OccupancyFor(k)
	if o.CTAs != 16 || o.Limiter != "CTA slots" {
		t.Fatalf("CTAs = %d (%s), want 16 (CTA slots)", o.CTAs, o.Limiter)
	}
}

func TestOccupancyZeroWhenOversized(t *testing.T) {
	d := TX1()
	k := Kernel{BlockSize: 128, RegsPerThread: 16, SharedMemPerBlock: 64 << 10}
	if o := d.OccupancyFor(k); o.CTAs != 0 {
		t.Fatalf("CTAs = %d, want 0 for oversized shared memory", o.CTAs)
	}
}

func TestKernelValidate(t *testing.T) {
	good := Kernel{Name: "k", GridSize: 1, BlockSize: 32}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := []Kernel{
		{Name: "g", GridSize: -1, BlockSize: 32},
		{Name: "b", GridSize: 1, BlockSize: 0},
		{Name: "r", GridSize: 1, BlockSize: 32, RegsPerThread: -1},
		{Name: "w", GridSize: 1, BlockSize: 32, FMAInsts: -2},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q: invalid launch accepted", k.Name)
		}
	}
}

func TestKernelDerivedQuantities(t *testing.T) {
	k := Kernel{GridSize: 10, BlockSize: 128, FMAInsts: 300, OtherInsts: 100}
	if got := k.TotalInstsPerThread(); got != 400 {
		t.Errorf("TotalInstsPerThread = %v, want 400", got)
	}
	if got := k.FMAFraction(); got != 0.75 {
		t.Errorf("FMAFraction = %v, want 0.75", got)
	}
	if got := (Kernel{}).FMAFraction(); got != 0 {
		t.Errorf("FMAFraction of empty kernel = %v, want 0", got)
	}
}
