package gpu

import (
	"errors"
	"fmt"
	"math"
)

// Result reports what one simulated kernel launch did.
type Result struct {
	Kernel      string
	Cycles      float64 // core cycles from launch to last CTA retirement
	TimeMS      float64
	EnergyJ     float64
	AvgPowerW   float64
	ActiveSMs   int     // SMs that hosted at least one CTA
	MaxResident int     // peak CTAs resident device-wide
	IssueUtil   float64 // time-averaged fraction of total issue bandwidth used
	DRAMUtil    float64 // time-averaged fraction of DRAM bandwidth used
}

// Launch pairs a kernel with its placement configuration.
type Launch struct {
	Kernel Kernel
	Config LaunchConfig
}

// Aggregate sums a sequence of results.
type Aggregate struct {
	TimeMS    float64
	EnergyJ   float64
	AvgPowerW float64
}

// cta is one resident CTA: its SM and the work left on its two channels.
type cta struct {
	sm       int
	remIssue float64 // thread-instructions left to issue
	remMem   float64 // DRAM bytes left to transfer
}

const simEpsilon = 1e-9

// ErrNoResidency is returned when a kernel's per-CTA resource demands
// exceed what a single SM provides, so it can never launch.
var ErrNoResidency = errors.New("gpu: kernel cannot be resident on any SM")

// ErrSMOverlap is returned when two co-running launches' dispatch windows
// give the same SM a non-zero residency cap.
var ErrSMOverlap = errors.New("gpu: co-running launches overlap on an SM")

// Simulate runs one kernel launch to completion on the device and returns
// timing, utilization and energy. It is deterministic.
func (d *Device) Simulate(k Kernel, cfg LaunchConfig) (Result, error) {
	var out [1]Result
	total, err := d.simulate([]Launch{{Kernel: k, Config: cfg}}, out[:])
	if err != nil {
		return Result{}, err
	}
	res := out[0]
	res.EnergyJ, res.AvgPowerW = total.EnergyJ, total.AvgPowerW
	res.IssueUtil, res.DRAMUtil = total.IssueUtil, total.DRAMUtil
	return res, nil
}

// simulate is the one event loop: it runs the launches from time zero,
// each on the SMs its dispatch window owns and all sharing the DRAM
// channel, until every grid drains. out[k] receives launch k's name,
// completion (Cycles, TimeMS) and placement (ActiveSMs, MaxResident);
// the returned Result holds the device-wide span, energy,
// power and utilizations. A single launch owning whatever window it asks
// for is the plain kernel launch.
//
// The loop allocates nothing: resident CTAs live in one slice sized to the
// residency total and every per-SM scratch vector is carved once per call.
// Rates are accumulated one addition per demanding CTA in SM-major order
// (n additions of a share, never n×share) and the DRAM fill subtracts SM
// caps in index order — floating-point addition does not associate, and
// testdata/simulate.golden and corun.golden pin the sums that order
// produces.
func (d *Device) simulate(launches []Launch, out []Result) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	nSM, nL := d.NumSMs, len(launches)
	// Every per-SM vector is carved to length nSM exactly, so one bounds
	// check on an SM index covers all of them.
	ints := make([]int, 5*nSM+3*nL)
	smInts := func(i int) []int { return ints[i*nSM:][:nSM] }
	resident, issueN, memN := smInts(0), smInts(1), smInts(2)
	// caps[sm] is the residency cap of the launch owner[sm], 0 if no launch
	// owns sm.
	caps, owner := smInts(3), smInts(4)
	perL := ints[5*nSM:]
	pending, winLo, winHi := perL[:nL], perL[nL:2*nL], perL[2*nL:]
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
		pending[k], winLo[k], winHi[k] = l.Kernel.GridSize, lo, hi
		ctaSlots += min((hi-lo)*tlp, l.Kernel.GridSize)
		gateIdle = gateIdle && l.Config.PowerGateIdle
	}
	bools := make([]bool, 2*nSM)
	everUsed, unfilled := bools[:nSM], bools[nSM:][:nSM]

	// dispatch fills each launch's window in launch order and records the
	// launch's residency peak. A window is a contiguous SM range, so picking
	// inside the sub-slices is picking on the device with every other SM
	// disallowed. ctas is passed through, not captured, so the event loop
	// keeps it in registers.
	dispatch := func(ctas []cta) []cta {
		for k := range launches {
			l, lo := &launches[k], winLo[k]
			res, lim, used := resident[lo:winHi[k]], caps[lo:winHi[k]], everUsed[lo:winHi[k]]
			issue, mem := l.Kernel.issueWorkPerCTA(), l.Kernel.memWorkPerCTA()
			left := pending[k]
			for ; left > 0; left-- {
				sm := l.Config.Policy.pickSM(res, lim)
				if sm < 0 {
					break
				}
				res[sm]++
				used[sm] = true
				ctas = append(ctas, cta{sm: lo + sm, remIssue: issue, remMem: mem})
			}
			pending[k] = left
			live := 0
			for _, r := range res {
				live += r
			}
			out[k].MaxResident = max(out[k].MaxResident, live)
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
				resident[sm]--
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
		for _, u := range everUsed[winLo[k]:winHi[k]] {
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

// LaunchError is the typed failure of one launch in a Run sequence. It
// wraps the underlying cause (errors.Is still sees ErrNoResidency and
// fault.ErrInjected through Unwrap) and records which launch failed, so
// serving-layer retry and circuit-breaking decisions can tell injected
// chaos from genuine simulator rejections.
type LaunchError struct {
	Kernel   string // failing kernel's name
	Index    int    // position in the launch sequence
	Injected bool   // true when a fault injector produced the failure
	Err      error  // underlying cause
}

// Error implements error.
func (e *LaunchError) Error() string {
	tag := ""
	if e.Injected {
		tag = " [injected]"
	}
	return fmt.Sprintf("gpu: launch %d (%s)%s: %v", e.Index, e.Kernel, tag, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *LaunchError) Unwrap() error { return e.Err }

// Run simulates a sequence of launches back to back (e.g. the layers of a
// network) and returns per-launch results plus the aggregate. A failure is
// returned as a *LaunchError naming the launch that died.
func (d *Device) Run(launches []Launch) ([]Result, Aggregate, error) {
	results := make([]Result, 0, len(launches))
	var agg Aggregate
	for i, l := range launches {
		r, err := d.Simulate(l.Kernel, l.Config)
		if err != nil {
			return nil, Aggregate{}, &LaunchError{Kernel: l.Kernel.Name, Index: i, Err: err}
		}
		results = append(results, r)
		agg.TimeMS += r.TimeMS
		agg.EnergyJ += r.EnergyJ
	}
	if agg.TimeMS > 0 {
		agg.AvgPowerW = agg.EnergyJ / (agg.TimeMS * 1e-3)
	}
	return results, agg, nil
}
