package gpu

import (
	"errors"
	"math"
	"testing"
)

func TestAtFrequencyScaling(t *testing.T) {
	d := K20c()
	half, err := d.AtFrequency(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.ClockMHz != d.ClockMHz/2 {
		t.Fatalf("clock %v, want %v", half.ClockMHz, d.ClockMHz/2)
	}
	// Dynamic power scales cubically, static linearly.
	if math.Abs(half.SMDynPowerW-d.SMDynPowerW/8) > 1e-9 {
		t.Fatalf("dyn power %v, want %v", half.SMDynPowerW, d.SMDynPowerW/8)
	}
	if math.Abs(half.SMStaticPowerW-d.SMStaticPowerW/2) > 1e-9 {
		t.Fatalf("static power %v, want %v", half.SMStaticPowerW, d.SMStaticPowerW/2)
	}
	if err := half.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAtFrequencyRejectsBadFrac(t *testing.T) {
	d := TX1()
	for _, f := range []float64{0, -0.5, 1.5} {
		if _, err := d.AtFrequency(f); err == nil {
			t.Errorf("fraction %v accepted", f)
		}
	}
}

// A compute-bound kernel at half clock takes twice as long but burns less
// energy — the Fig 3 imperceptible-region trade.
func TestDVFSEnergyTimeTrade(t *testing.T) {
	d := testDevice()
	k := computeKernel(16)
	full, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	half, err := d.AtFrequency(0.5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := half.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.TimeMS-2*full.TimeMS)/full.TimeMS > 0.05 {
		t.Fatalf("half-clock time %v, want ≈2× %v", slow.TimeMS, full.TimeMS)
	}
	if slow.EnergyJ >= full.EnergyJ {
		t.Fatalf("half-clock energy %v not below full-clock %v", slow.EnergyJ, full.EnergyJ)
	}
}

func TestSMOffsetWindow(t *testing.T) {
	cfg := LaunchConfig{Policy: PrioritySM, SMOffset: 1, SMLimit: 2}
	d := testDevice()
	if lo, hi, tlp := cfg.window(d, computeKernel(1)); lo != 1 || hi != 3 || tlp == 0 {
		t.Fatalf("window = [%d,%d) cap %d, want [1,3) with a non-zero cap", lo, hi, tlp)
	}
}

func TestSimulateConcurrentDisjointWindows(t *testing.T) {
	d := testDevice() // 4 SMs
	fg := Launch{
		Kernel: computeKernel(8),
		Config: LaunchConfig{Policy: PrioritySM, SMLimit: 2, PowerGateIdle: true},
	}
	bg := Launch{
		Kernel: Kernel{Name: "bg", GridSize: 8, BlockSize: 128, RegsPerThread: 32, FMAInsts: 500},
		Config: LaunchConfig{Policy: PrioritySM, SMOffset: 2, SMLimit: 2, PowerGateIdle: true},
	}
	res, err := d.SimulateConcurrent([]Launch{fg, bg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerKernel) != 2 {
		t.Fatalf("got %d kernel results", len(res.PerKernel))
	}
	// Each kernel stays inside its 2-SM window (PSM may pack onto fewer).
	for i, r := range res.PerKernel {
		if r.ActiveSMs < 1 || r.ActiveSMs > 2 {
			t.Fatalf("kernel %d active SMs %d, want within its 2-SM window", i, r.ActiveSMs)
		}
	}
	// With disjoint windows and no DRAM pressure, the foreground kernel
	// runs exactly as fast as it would alone on 2 SMs.
	alone, err := d.Simulate(fg.Kernel, fg.Config)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PerKernel[0].TimeMS-alone.TimeMS)/alone.TimeMS > 0.01 {
		t.Fatalf("co-run foreground %vms vs alone %vms", res.PerKernel[0].TimeMS, alone.TimeMS)
	}
}

func TestSimulateConcurrentSharesDRAM(t *testing.T) {
	d := testDevice()
	mem := func(name string, offset int) Launch {
		return Launch{
			Kernel: Kernel{Name: name, GridSize: 8, BlockSize: 128, FMAInsts: 1, GlobalBytes: 8192},
			Config: LaunchConfig{Policy: PrioritySM, SMOffset: offset, SMLimit: 2},
		}
	}
	solo, err := d.Simulate(mem("solo", 0).Kernel, mem("solo", 0).Config)
	if err != nil {
		t.Fatal(err)
	}
	co, err := d.SimulateConcurrent([]Launch{mem("a", 0), mem("b", 2)})
	if err != nil {
		t.Fatal(err)
	}
	// Two bandwidth-bound kernels halve each other's effective bandwidth.
	ratio := co.PerKernel[0].TimeMS / solo.TimeMS
	if ratio < 1.5 {
		t.Fatalf("co-run slowdown %vx, want ≈2x for DRAM-bound kernels", ratio)
	}
}

// A one-launch co-run is Simulate: the same loop, so every field the two
// results share agrees to the last bit — at one wave, a partial wave and
// many waves, compute-only, memory-bound and mixed.
func TestSimulateConcurrentSingleMatchesSimulate(t *testing.T) {
	d := testDevice()
	mem := Kernel{Name: "mem", BlockSize: 128, FMAInsts: 1, GlobalBytes: 8192}
	mixed := Kernel{
		Name: "mixed", BlockSize: 96, RegsPerThread: 64,
		SharedMemPerBlock: 4096, FMAInsts: 800, OtherInsts: 250, GlobalBytes: 512,
	}
	for _, k := range []Kernel{computeKernel(0), mem, mixed} {
		for _, grid := range []int{16, 100, 1000} {
			for _, cfg := range []LaunchConfig{
				DefaultLaunch(),
				{Policy: PrioritySM, SMOffset: 1, SMLimit: 2, TLPLimit: 3, PowerGateIdle: true},
			} {
				k.GridSize = grid
				solo, err := d.Simulate(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				co, err := d.SimulateConcurrent([]Launch{{Kernel: k, Config: cfg}})
				if err != nil {
					t.Fatal(err)
				}
				got := co.PerKernel[0]
				if got.Cycles != solo.Cycles || got.TimeMS != solo.TimeMS || co.EnergyJ != solo.EnergyJ ||
					got.ActiveSMs != solo.ActiveSMs || got.MaxResident != solo.MaxResident {
					t.Errorf("%s grid %d %+v:\n co-run %+v (energy %v)\n solo   %+v", k.Name, grid, cfg, got, co.EnergyJ, solo)
				}
				if solo.MaxResident == 0 {
					t.Errorf("%s grid %d: MaxResident 0 for a non-empty launch", k.Name, grid)
				}
			}
		}
	}
}

// Two launches whose windows share an SM are rejected; neighbours that
// only touch are not.
func TestSimulateConcurrentRejectsOverlap(t *testing.T) {
	d := testDevice() // 4 SMs
	at := func(offset, limit int) Launch {
		return Launch{Kernel: computeKernel(8), Config: LaunchConfig{Policy: PrioritySM, SMOffset: offset, SMLimit: limit}}
	}
	if _, err := d.SimulateConcurrent([]Launch{at(0, 2), at(2, 2)}); err != nil {
		t.Fatalf("disjoint neighbours [0,2)+[2,4) rejected: %v", err)
	}
	for _, ls := range [][]Launch{
		{at(0, 3), at(2, 2)},
		{at(0, 0), at(2, 2)},           // SMLimit 0 is the whole device
		{at(0, 1), at(1, 2), at(2, 2)}, // the third collides with the second
	} {
		if _, err := d.SimulateConcurrent(ls); !errors.Is(err, ErrSMOverlap) {
			t.Errorf("overlapping windows: err = %v, want ErrSMOverlap", err)
		}
	}
}

func TestSimulateConcurrentRejectsUnlaunchable(t *testing.T) {
	d := testDevice()
	bad := Launch{Kernel: Kernel{Name: "huge", GridSize: 1, BlockSize: 128, SharedMemPerBlock: 1 << 20}}
	if _, err := d.SimulateConcurrent([]Launch{bad}); err == nil {
		t.Fatal("unlaunchable co-run accepted")
	}
	if _, err := d.SimulateConcurrent(nil); err == nil {
		t.Fatal("empty co-run accepted")
	}
}

// The point of spatial multi-tasking (Section III.D.2): donating the SMs
// the resource model freed lets a background kernel make progress *during*
// the foreground kernel without slowing it — the pair overlaps instead of
// queueing.
func TestCoRunningOverlapsWork(t *testing.T) {
	d := testDevice()
	fg := Launch{Kernel: computeKernel(4), Config: LaunchConfig{Policy: PrioritySM, SMLimit: 2, TLPLimit: 2}}
	bgKernel := Kernel{Name: "bg", GridSize: 16, BlockSize: 128, RegsPerThread: 32, FMAInsts: 1000}
	bg := Launch{Kernel: bgKernel, Config: LaunchConfig{Policy: RoundRobin, SMOffset: 2, SMLimit: 2}}

	co, err := d.SimulateConcurrent([]Launch{fg, bg})
	if err != nil {
		t.Fatal(err)
	}
	fgAlone, err := d.Simulate(fg.Kernel, fg.Config)
	if err != nil {
		t.Fatal(err)
	}
	bgAlone, err := d.Simulate(bg.Kernel, bg.Config)
	if err != nil {
		t.Fatal(err)
	}
	// The foreground is untouched by the co-runner…
	if co.PerKernel[0].TimeMS > fgAlone.TimeMS*1.05 {
		t.Fatalf("co-running slowed the foreground: %v vs %v", co.PerKernel[0].TimeMS, fgAlone.TimeMS)
	}
	// …and the pair completes in max(fg, bg) rather than fg + bg: the
	// background work rode along inside the foreground's window.
	want := math.Max(fgAlone.TimeMS, bgAlone.TimeMS)
	if co.TotalMS > want*1.05 {
		t.Fatalf("co-run %vms, want ≈max(%v, %v)", co.TotalMS, fgAlone.TimeMS, bgAlone.TimeMS)
	}
	if co.TotalMS >= (fgAlone.TimeMS+bgAlone.TimeMS)*0.95 {
		t.Fatalf("co-run %vms did not overlap the kernels (%v + %v)", co.TotalMS, fgAlone.TimeMS, bgAlone.TimeMS)
	}
}
