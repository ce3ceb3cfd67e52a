package gpu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// simulateEventLoop is the event loop as it stood before wave replay, kept
// as the oracle TestSimulateReplayMatchesEventLoop holds Device.simulate
// to: it simulates every event of every wave.
func simulateEventLoop(d *Device, launches []Launch, out []Result) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	nSM, nL := d.NumSMs, len(launches)
	// Every per-SM vector is carved to length nSM exactly, so one bounds
	// check on an SM index covers all of them.
	ints := make([]int, 5*nSM)
	smInts := func(i int) []int { return ints[i*nSM:][:nSM] }
	resident, issueN, memN := smInts(0), smInts(1), smInts(2)
	// caps[sm] is the residency cap of the launch owner[sm], 0 if no launch
	// owns sm.
	caps, owner := smInts(3), smInts(4)
	wins := make([]smWindow, nL)
	floats := make([]float64, 8*nSM)
	smFloats := func(i int) []float64 { return floats[i*nSM:][:nSM] }
	perSMIssueUsed, issueShare, smRate := smFloats(0), smFloats(1), smFloats(2)
	issueMin, memMin := smFloats(3), smFloats(4) // least work left among an SM's demanders
	// The owner's per-CTA constants, spread per SM for the per-CTA passes.
	ctaIssueCap, issueDone, memDone := smFloats(5), smFloats(6), smFloats(7)

	ctaSlots := 0
	gateIdle := true
	for k := range launches {
		l := &launches[k]
		if err := l.Kernel.Validate(); err != nil {
			return Result{}, err
		}
		lo, hi, tlp := l.Config.window(d, l.Kernel)
		if tlp == 0 || lo == hi {
			return Result{}, fmt.Errorf("%w: kernel %s (block %d threads, %d regs/thread, %dB shmem) on %s",
				ErrNoResidency, l.Kernel.Name, l.Kernel.BlockSize, l.Kernel.RegsPerThread, l.Kernel.SharedMemPerBlock, d.Name)
		}
		issueCap := float64(l.Kernel.BlockSize) * d.PerThreadIPC
		issueEps := simEpsilon*l.Kernel.issueWorkPerCTA() + simEpsilon
		memEps := simEpsilon*l.Kernel.memWorkPerCTA() + simEpsilon
		for sm := lo; sm < hi; sm++ {
			if caps[sm] > 0 {
				return Result{}, fmt.Errorf("%w: SM %d of %s claimed by kernels %s and %s",
					ErrSMOverlap, sm, d.Name, launches[owner[sm]].Kernel.Name, l.Kernel.Name)
			}
			caps[sm], owner[sm] = tlp, k
			ctaIssueCap[sm], issueDone[sm], memDone[sm] = issueCap, issueEps, memEps
		}
		out[k] = Result{Kernel: l.Kernel.Name}
		wins[k] = smWindow{lo: lo, res: resident[lo:hi], tlp: tlp, policy: l.Config.Policy, pending: l.Kernel.GridSize}
		ctaSlots += min((hi-lo)*tlp, l.Kernel.GridSize)
		gateIdle = gateIdle && l.Config.PowerGateIdle
	}
	bools := make([]bool, 2*nSM)
	everUsed, unfilled := bools[:nSM], bools[nSM:][:nSM]

	// dispatch fills each launch's window in launch order and records the
	// launch's residency peak. A window is a contiguous SM range, so picking
	// inside it is picking on the device with every other SM disallowed.
	// ctas is passed through, not captured, so the event loop keeps it in
	// registers.
	dispatch := func(ctas []cta) []cta {
		for k := range wins {
			w, kern := &wins[k], &launches[k].Kernel
			issue, mem := kern.issueWorkPerCTA(), kern.memWorkPerCTA()
			for ; w.pending > 0; w.pending-- {
				sm := w.place()
				if sm < 0 {
					break
				}
				everUsed[w.lo+sm] = true
				ctas = append(ctas, cta{sm: w.lo + sm, remIssue: issue, remMem: mem})
			}
			out[k].MaxResident = max(out[k].MaxResident, w.live)
		}
		return ctas
	}
	ctas := dispatch(make([]cta, 0, ctaSlots))

	var (
		now          float64 // cycles
		energyJ      float64
		issueUtilInt float64 // ∫ issue-utilization dt
		dramUtilInt  float64
		dramCapacity = d.BytesPerCycle()
		// Each lane can request up to 4 bytes per cycle; this bounds how
		// much DRAM bandwidth one SM's load/store units can consume.
		smMemCap       = float64(d.CoresPerSM) * 4
		issueCapPerSM  = float64(d.CoresPerSM)
		secondsPerCyc  = 1 / (d.ClockMHz * 1e6)
		gatedStaticSMs = 0
	)
	// SMs no launch can use are gated when every launch gates.
	if gateIdle {
		for _, c := range caps {
			if c == 0 {
				gatedStaticSMs++
			}
		}
	}

	for len(ctas) > 0 {
		clear(issueN)
		clear(memN)
		for sm := range issueMin {
			issueMin[sm], memMin[sm] = math.Inf(1), math.Inf(1)
		}
		for i := range ctas {
			c, sm := &ctas[i], ctas[i].sm
			if c.remIssue > simEpsilon {
				issueN[sm]++
				issueMin[sm] = min(issueMin[sm], c.remIssue)
			}
			if c.remMem > simEpsilon {
				memN[sm]++
				memMin[sm] = min(memMin[sm], c.remMem)
			}
		}
		// --- Issue rates: each SM's issue bandwidth splits equally over
		// its demanding CTAs, each capped at what its threads can issue. ---
		totalIssueRate := 0.0
		for sm, n := range issueN {
			perSMIssueUsed[sm] = 0
			if n == 0 {
				continue
			}
			share := min(issueCapPerSM/float64(n), ctaIssueCap[sm])
			issueShare[sm] = share
			for ; n > 0; n-- {
				perSMIssueUsed[sm] += share
				totalIssueRate += share
			}
		}
		// --- Memory rates: device-wide water-fill with a per-SM cap. Each
		// SM's aggregate demand is capped by its LSU width; bandwidth
		// splits equally per demanding CTA. ---
		totalMemRate := 0.0
		remaining := dramCapacity
		for sm, n := range memN {
			unfilled[sm] = n > 0
			smRate[sm] = 0
		}
		for {
			nCTAs := 0
			for sm, n := range memN {
				if unfilled[sm] {
					nCTAs += n
				}
			}
			if nCTAs == 0 || remaining <= simEpsilon {
				break
			}
			perCTA := remaining / float64(nCTAs)
			progressed := false
			for sm, n := range memN {
				if unfilled[sm] && perCTA*float64(n) >= smMemCap-simEpsilon {
					smRate[sm] = smMemCap
					remaining -= smMemCap
					unfilled[sm] = false
					progressed = true
				}
			}
			if !progressed {
				for sm, n := range memN {
					if unfilled[sm] {
						smRate[sm] = perCTA * float64(n)
					}
				}
				break
			}
		}
		for sm, n := range memN {
			if n == 0 {
				continue
			}
			smRate[sm] /= float64(n) // per demanding CTA from here on
			for ; n > 0; n-- {
				totalMemRate += smRate[sm]
			}
		}

		// --- Next event: earliest channel drain. An SM's demanders share
		// one rate, so its first drain is its least remaining work. ---
		dt := math.Inf(1)
		for sm := range issueN {
			if issueN[sm] > 0 && issueShare[sm] > 0 {
				dt = min(dt, issueMin[sm]/issueShare[sm])
			}
			if memN[sm] > 0 && smRate[sm] > 0 {
				dt = min(dt, memMin[sm]/smRate[sm])
			}
		}
		if math.IsInf(dt, 1) {
			// All remaining work has zero demand (already drained); retire.
			dt = 0
		}

		// --- Integrate power over dt. Unowned SMs issue nothing, so they
		// add exactly zero dynamic power whether gated or not. ---
		if dt > 0 {
			power := d.IdlePowerW
			activeStaticSMs := d.NumSMs - gatedStaticSMs
			power += float64(activeStaticSMs) * d.SMStaticPowerW
			for _, used := range perSMIssueUsed {
				power += d.SMDynPowerW * (used / issueCapPerSM)
			}
			achievedGBps := totalMemRate * d.ClockMHz * 1e6 / 1e9
			power += d.DRAMPowerPerGBps * achievedGBps
			energyJ += power * dt * secondsPerCyc
			issueUtilInt += dt * totalIssueRate / (issueCapPerSM * float64(d.NumSMs))
			dramUtilInt += dt * totalMemRate / dramCapacity
		}

		// --- Advance state and retire completed CTAs. ---
		now += dt
		kept := 0
		for i := range ctas {
			c, sm := &ctas[i], ctas[i].sm
			if c.remIssue > simEpsilon {
				c.remIssue -= issueShare[sm] * dt
			}
			if c.remMem > simEpsilon {
				c.remMem -= smRate[sm] * dt
			}
			if c.remIssue <= issueDone[sm] && c.remMem <= memDone[sm] {
				w := &wins[owner[sm]]
				w.retire(sm - w.lo)
				out[owner[sm]].Cycles = now // time only advances: the last retirement stands
				continue
			}
			if kept != i {
				ctas[kept] = *c
			}
			kept++
		}
		completed := len(ctas) - kept
		ctas = ctas[:kept]
		if completed > 0 {
			ctas = dispatch(ctas)
		} else if dt == 0 {
			return Result{}, fmt.Errorf("gpu: simulation stalled for kernel %s on %s",
				launches[owner[ctas[0].sm]].Kernel.Name, d.Name)
		}
	}

	for k := range launches {
		r := &out[k]
		r.TimeMS = d.CyclesToMS(r.Cycles)
		for _, u := range everUsed[wins[k].lo:][:len(wins[k].res)] {
			if u {
				r.ActiveSMs++
			}
		}
	}
	total := Result{Cycles: now, TimeMS: d.CyclesToMS(now), EnergyJ: energyJ}
	if now > 0 {
		total.AvgPowerW = energyJ / (now * secondsPerCyc)
		total.IssueUtil = issueUtilInt / now
		total.DRAMUtil = dramUtilInt / now
	}
	return total, nil
}

// TestSimulateReplayMatchesEventLoop: replaying steady-state waves changes
// no bit of any Result field against the loop that simulates every wave.
// The launches are random: grids of 1 to 100 000 CTAs (a third of them
// within one CTA of a whole number of waves, where a dispatch can run out
// of pending CTAs) on the four platforms, both policies, TLP and SM
// limits, power gating, and co-runs of one launch beside one to three
// others of unequal length.
func TestSimulateReplayMatchesEventLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	randKernel := func(name string) Kernel {
		k := Kernel{
			Name:              name,
			BlockSize:         []int{64, 128, 256}[rng.Intn(3)],
			RegsPerThread:     16 + rng.Intn(113),
			SharedMemPerBlock: rng.Intn(4) * 4096,
			FMAInsts:          float64(rng.Intn(20000)),
			OtherInsts:        float64(rng.Intn(10000)),
			GlobalBytes:       float64(rng.Intn(4000)),
		}
		if rng.Intn(8) == 0 { // memory-bound
			k.FMAInsts, k.OtherInsts = 1, 0
		}
		return k
	}
	// randGrid draws a log-uniform grid up to maxGrid, a third of the time
	// snapped to within one CTA of a multiple of the window's slots.
	randGrid := func(d *Device, l Launch, maxGrid int) int {
		g := int(math.Exp(rng.Float64() * math.Log(float64(maxGrid))))
		lo, hi, tlp := l.Config.window(d, l.Kernel)
		if slots := (hi - lo) * tlp; slots > 0 && rng.Intn(3) == 0 {
			g = max(1, g/slots*slots+rng.Intn(3)-1)
		}
		return max(1, g)
	}
	const cases = 600
	multiWave := 0
	for i := 0; i < cases; i++ {
		d := AllPlatforms()[i%4]
		nL := 1
		if i%2 == 1 {
			nL = min(2+rng.Intn(3), d.NumSMs)
		}
		// Cut the device into nL disjoint windows; a lone launch may also
		// leave SMs unused.
		cuts := []int{0}
		for _, c := range rng.Perm(d.NumSMs - 1)[:nL-1] {
			cuts = append(cuts, c+1)
		}
		sort.Ints(cuts)
		cuts = append(cuts, d.NumSMs)
		gate := rng.Intn(2) == 0
		launches := make([]Launch, nL)
		for k := range launches {
			cfg := LaunchConfig{
				Policy:        SchedulerPolicy(rng.Intn(2)),
				SMOffset:      cuts[k],
				SMLimit:       cuts[k+1] - cuts[k],
				TLPLimit:      rng.Intn(5),
				PowerGateIdle: gate,
			}
			if nL == 1 && rng.Intn(2) == 0 {
				cfg.SMOffset, cfg.SMLimit = rng.Intn(d.NumSMs), rng.Intn(d.NumSMs)
			}
			l := Launch{Kernel: randKernel(fmt.Sprintf("k%d", k)), Config: cfg}
			// The first launch runs long; the co-runners drain sooner.
			maxGrid := 100000
			if k > 0 {
				maxGrid = 2000
			}
			l.Kernel.GridSize = randGrid(d, l, maxGrid)
			if lo, hi, tlp := l.Config.window(d, l.Kernel); l.Kernel.GridSize > 2*(hi-lo)*tlp {
				multiWave++
			}
			launches[k] = l
		}
		want, got := make([]Result, nL), make([]Result, nL)
		wantTotal, wantErr := simulateEventLoop(d, launches, want)
		gotTotal, gotErr := d.simulate(launches, got)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("case %d on %s: error %v, event loop %v", i, d.Name, gotErr, wantErr)
		}
		if gotTotal != wantTotal {
			t.Fatalf("case %d on %s %+v: total %+v, event loop %+v", i, d.Name, launches, gotTotal, wantTotal)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("case %d on %s %+v: launch %d %+v, event loop %+v", i, d.Name, launches, k, got[k], want[k])
			}
		}
	}
	if multiWave < cases/2 {
		t.Fatalf("only %d launches span more than two waves", multiWave)
	}
}
