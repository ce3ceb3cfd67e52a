package gpu

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// testDevice returns a small 4-SM device convenient for hand calculation.
func testDevice() *Device {
	return &Device{
		Name:             "test4",
		Class:            Desktop,
		NumSMs:           4,
		ClockMHz:         1000,
		CoresPerSM:       128,
		RegistersPerSM:   65536,
		SharedMemPerSM:   49152,
		MaxCTAsPerSM:     16,
		MaxThreadsPerSM:  2048,
		GlobalMemBytes:   1 << 30,
		UsableMemFrac:    1,
		MemBandwidthGBps: 128, // 128 bytes/cycle at 1GHz
		PerThreadIPC:     0.25,
		IdlePowerW:       10,
		SMStaticPowerW:   2,
		SMDynPowerW:      4,
		DRAMPowerPerGBps: 0.05,
	}
}

func computeKernel(grid int) Kernel {
	return Kernel{
		Name:          "compute",
		GridSize:      grid,
		BlockSize:     128,
		RegsPerThread: 32,
		FMAInsts:      1000,
	}
}

func TestSimulateSingleComputeCTA(t *testing.T) {
	d := testDevice()
	k := computeKernel(1)
	r, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	// One CTA of 128 threads at 0.25 IPC issues 32 inst/cycle;
	// 1000×128 thread-instructions take 4000 cycles.
	if math.Abs(r.Cycles-4000) > 1 {
		t.Fatalf("Cycles = %v, want 4000", r.Cycles)
	}
	if r.ActiveSMs != 1 {
		t.Fatalf("ActiveSMs = %d, want 1", r.ActiveSMs)
	}
}

func TestSimulateIssueSaturation(t *testing.T) {
	d := testDevice()
	// 16 CTAs per SM × 4 SMs resident at once: per-SM demand
	// 16×32 = 512 inst/cycle, capped at 128 cores.
	k := computeKernel(64)
	r, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	// Total work 64×128×1000 thread-insts over 4×128 inst/cycle = 16000 cycles.
	if math.Abs(r.Cycles-16000) > 1 {
		t.Fatalf("Cycles = %v, want 16000", r.Cycles)
	}
	if r.IssueUtil < 0.99 {
		t.Fatalf("IssueUtil = %v, want ≈1", r.IssueUtil)
	}
}

func TestSimulateWavesScaleTime(t *testing.T) {
	d := testDevice()
	one, err := d.Simulate(computeKernel(64), DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	two, err := d.Simulate(computeKernel(128), DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	ratio := two.Cycles / one.Cycles
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("two-wave/one-wave cycle ratio = %v, want ≈2", ratio)
	}
}

func TestSimulateMemoryBound(t *testing.T) {
	d := testDevice()
	k := Kernel{
		Name:        "membound",
		GridSize:    64,
		BlockSize:   128,
		FMAInsts:    1, // negligible compute
		GlobalBytes: 4096,
	}
	r, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	// Total traffic 64×128×4096 B at 128 B/cycle = 262144 cycles.
	want := 64.0 * 128 * 4096 / 128
	if math.Abs(r.Cycles-want)/want > 0.01 {
		t.Fatalf("Cycles = %v, want ≈%v", r.Cycles, want)
	}
	if r.DRAMUtil < 0.95 {
		t.Fatalf("DRAMUtil = %v, want ≈1", r.DRAMUtil)
	}
}

// Fig 7: with 4 CTAs on 4 SMs and optTLP=2, PSM packs the CTAs onto 2 SMs
// at (nearly) the same performance as RR, and with power gating consumes
// less energy.
func TestFig7PSMvsRR(t *testing.T) {
	d := testDevice()
	k := computeKernel(4)
	rr, err := d.Simulate(k, LaunchConfig{Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	psm, err := d.Simulate(k, LaunchConfig{Policy: PrioritySM, SMLimit: 2, TLPLimit: 2, PowerGateIdle: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.ActiveSMs != 4 {
		t.Errorf("RR ActiveSMs = %d, want 4", rr.ActiveSMs)
	}
	if psm.ActiveSMs != 2 {
		t.Errorf("PSM ActiveSMs = %d, want 2", psm.ActiveSMs)
	}
	// Two CTAs per SM issue 64 ≤ 128 inst/cycle, so packing does not slow
	// the kernel down.
	if math.Abs(psm.Cycles-rr.Cycles)/rr.Cycles > 0.01 {
		t.Errorf("PSM cycles %v vs RR %v: want near-equal", psm.Cycles, rr.Cycles)
	}
	if psm.EnergyJ >= rr.EnergyJ {
		t.Errorf("PSM energy %v ≥ RR energy %v: power gating should save energy", psm.EnergyJ, rr.EnergyJ)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	w := smWindow{res: make([]int, 4), tlp: 2, policy: RoundRobin}
	order := []int{}
	for i := 0; i < 8; i++ {
		order = append(order, w.place())
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("RR dispatch order %v, want %v", order, want)
		}
	}
	if sm := w.place(); sm != -1 {
		t.Fatalf("RR with full SMs returned %d, want -1", sm)
	}
}

func TestPrioritySMPacks(t *testing.T) {
	// A two-SM window: the device's other SMs are disallowed.
	w := smWindow{res: make([]int, 2), tlp: 2, policy: PrioritySM}
	order := []int{}
	for i := 0; i < 4; i++ {
		order = append(order, w.place())
	}
	want := []int{0, 0, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("PSM dispatch order %v, want %v", order, want)
		}
	}
	if sm := w.place(); sm != -1 {
		t.Fatalf("PSM with full allowed SMs returned %d, want -1", sm)
	}
}

// scanPick is the per-CTA scan smWindow replaces: PrioritySM takes the
// lowest SM with a free slot, RoundRobin the least-loaded one with a free
// slot (lowest index on ties); -1 when every SM is at the cap.
func scanPick(p SchedulerPolicy, res []int, tlp int) int {
	best := -1
	for i, r := range res {
		if r >= tlp {
			continue
		}
		if p == PrioritySM {
			return i
		}
		if best == -1 || r < res[best] {
			best = i
		}
	}
	return best
}

// TestSMWindowMatchesScan: under random interleavings of placements and
// retirements, a window's cursor picks the same SM as scanning the whole
// window, for both policies, every window width and cap.
func TestSMWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, p := range []SchedulerPolicy{RoundRobin, PrioritySM} {
		for n := 1; n <= 9; n++ {
			for tlp := 1; tlp <= 4; tlp++ {
				w := smWindow{res: make([]int, n), tlp: tlp, policy: p}
				ref := make([]int, n)
				for step := 0; step < 400; step++ {
					if rng.Intn(3) > 0 {
						want := scanPick(p, ref, tlp)
						if got := w.place(); got != want {
							t.Fatalf("%v n=%d tlp=%d step %d: placed on %d, scan picks %d (resident %v)", p, n, tlp, step, got, want, ref)
						}
						if want >= 0 {
							ref[want]++
						}
						continue
					}
					var busy []int
					for i, r := range ref {
						if r > 0 {
							busy = append(busy, i)
						}
					}
					if len(busy) > 0 {
						sm := busy[rng.Intn(len(busy))]
						ref[sm]--
						w.retire(sm)
					}
				}
				live := 0
				for _, r := range ref {
					live += r
				}
				if w.live != live {
					t.Fatalf("%v n=%d tlp=%d: live %d, want %d", p, n, tlp, w.live, live)
				}
			}
		}
	}
}

func TestSimulateNoResidency(t *testing.T) {
	d := testDevice()
	k := Kernel{Name: "huge", GridSize: 1, BlockSize: 128, SharedMemPerBlock: 1 << 20}
	_, err := d.Simulate(k, DefaultLaunch())
	if !errors.Is(err, ErrNoResidency) {
		t.Fatalf("err = %v, want ErrNoResidency", err)
	}
}

func TestSimulateZeroGrid(t *testing.T) {
	d := testDevice()
	k := computeKernel(0)
	r, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || r.EnergyJ != 0 {
		t.Fatalf("zero-grid launch did work: %+v", r)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	d := testDevice()
	k := Kernel{
		Name: "mixed", GridSize: 37, BlockSize: 96, RegsPerThread: 64,
		SharedMemPerBlock: 4096, FMAInsts: 800, OtherInsts: 250, GlobalBytes: 512,
	}
	a, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Simulate(k, DefaultLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestRunAggregates(t *testing.T) {
	d := testDevice()
	launches := []Launch{
		{Kernel: computeKernel(8), Config: DefaultLaunch()},
		{Kernel: computeKernel(16), Config: DefaultLaunch()},
	}
	results, agg, err := d.Run(launches)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	sum := results[0].TimeMS + results[1].TimeMS
	if math.Abs(agg.TimeMS-sum) > 1e-9 {
		t.Fatalf("aggregate time %v, want %v", agg.TimeMS, sum)
	}
	if agg.EnergyJ <= 0 || agg.AvgPowerW <= 0 {
		t.Fatalf("aggregate energy/power not positive: %+v", agg)
	}
}

func TestRunPropagatesError(t *testing.T) {
	d := testDevice()
	launches := []Launch{
		{Kernel: Kernel{Name: "bad", GridSize: 1, BlockSize: 128, SharedMemPerBlock: 1 << 20}},
	}
	if _, _, err := d.Run(launches); err == nil {
		t.Fatal("Run accepted an unlaunchable kernel")
	}
}

// TestRunInjectedGenuineError: a real simulator failure comes back as a
// typed *LaunchError naming the launch, with Injected false and the
// original cause intact.
func TestRunInjectedGenuineError(t *testing.T) {
	d := testDevice()
	bad := Launch{
		Kernel: Kernel{Name: "monster", GridSize: 1, BlockSize: 4096,
			RegsPerThread: 32, FMAInsts: 10},
		Config: DefaultLaunch(),
	}
	ls := []Launch{{Kernel: computeKernel(4), Config: DefaultLaunch()}, bad}
	_, _, err := d.Run(ls)
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not *LaunchError", err)
	}
	if le.Injected || le.Index != 1 || le.Kernel != "monster" {
		t.Fatalf("LaunchError = %+v, want genuine failure at index 1", le)
	}
	if !errors.Is(err, ErrNoResidency) {
		t.Fatalf("errors.Is(%v, ErrNoResidency) = false through wrapper", err)
	}
}

func TestSMLimitRestrictsDispatch(t *testing.T) {
	d := testDevice()
	k := computeKernel(16)
	r, err := d.Simulate(k, LaunchConfig{Policy: PrioritySM, SMLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.ActiveSMs != 1 {
		t.Fatalf("ActiveSMs = %d, want 1 under SMLimit=1", r.ActiveSMs)
	}
}

func TestTLPLimitBoundsResidency(t *testing.T) {
	d := testDevice()
	k := computeKernel(64)
	r, err := d.Simulate(k, LaunchConfig{Policy: RoundRobin, TLPLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxResident > 2*d.NumSMs {
		t.Fatalf("MaxResident = %d, want ≤ %d", r.MaxResident, 2*d.NumSMs)
	}
}

func TestPowerGatingReducesEnergyOnly(t *testing.T) {
	d := testDevice()
	k := computeKernel(4)
	cfg := LaunchConfig{Policy: PrioritySM, SMLimit: 2, TLPLimit: 2}
	unGated, err := d.Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PowerGateIdle = true
	gated, err := d.Simulate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gated.Cycles != unGated.Cycles {
		t.Errorf("gating changed timing: %v vs %v", gated.Cycles, unGated.Cycles)
	}
	if gated.EnergyJ >= unGated.EnergyJ {
		t.Errorf("gated energy %v ≥ ungated %v", gated.EnergyJ, unGated.EnergyJ)
	}
}

// Property: simulated time is monotone in grid size, and energy is
// positive whenever work is done.
func TestSimulateMonotoneInGridProperty(t *testing.T) {
	d := testDevice()
	f := func(g uint8) bool {
		grid := int(g%32) + 1
		a, err := d.Simulate(computeKernel(grid), DefaultLaunch())
		if err != nil {
			return false
		}
		b, err := d.Simulate(computeKernel(grid+7), DefaultLaunch())
		if err != nil {
			return false
		}
		return b.Cycles >= a.Cycles-1e-6 && a.EnergyJ > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateAllocsIndependentOfGrid: the event loop allocates nothing —
// a launch costs the same handful of set-up allocations whether 64 CTAs or
// 4096 drain through the device.
func TestSimulateAllocsIndependentOfGrid(t *testing.T) {
	d := testDevice()
	allocs := func(grid int) float64 {
		k := Kernel{
			Name: "mixed", GridSize: grid, BlockSize: 96, RegsPerThread: 64,
			SharedMemPerBlock: 4096, FMAInsts: 800, OtherInsts: 250, GlobalBytes: 512,
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := d.Simulate(k, DefaultLaunch()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	if small != large || small > 12 {
		t.Fatalf("Simulate allocates %v times at grid 64 and %v at grid 4096, want equal and ≤ 12", small, large)
	}
}
