package gpu

import (
	"errors"
	"fmt"
	"math"

	"pcnn/internal/fault"
)

// Result reports what one simulated kernel launch did.
type Result struct {
	Kernel         string
	Cycles         float64 // core cycles from launch to last CTA retirement
	TimeMS         float64
	EnergyJ        float64
	AvgPowerW      float64
	ActiveSMs      int     // SMs that hosted at least one CTA
	MaxResident    int     // peak CTAs resident device-wide
	IssueUtil      float64 // time-averaged fraction of total issue bandwidth used
	DRAMUtil       float64 // time-averaged fraction of DRAM bandwidth used
	AchievedGFLOPs float64
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

// Simulate runs one kernel launch to completion on the device and returns
// timing, utilization and energy. It is deterministic.
//
// The event loop allocates nothing: resident CTAs live in one slice sized
// to the residency total and every per-SM scratch vector is carved once
// per call. Rates are accumulated one addition per demanding CTA in
// SM-major order (n additions of a share, never n×share) and the DRAM fill
// subtracts SM caps in index order — floating-point addition does not
// associate, and testdata/simulate.golden pins the sums that order
// produces.
func (d *Device) Simulate(k Kernel, cfg LaunchConfig) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if err := k.Validate(); err != nil {
		return Result{}, err
	}
	caps := cfg.residencyCaps(d, k)
	totalSlots := 0
	for _, c := range caps {
		totalSlots += c
	}
	if totalSlots == 0 {
		return Result{}, fmt.Errorf("%w: kernel %s (block %d threads, %d regs/thread, %dB shmem) on %s",
			ErrNoResidency, k.Name, k.BlockSize, k.RegsPerThread, k.SharedMemPerBlock, d.Name)
	}
	res := Result{Kernel: k.Name}
	if k.GridSize == 0 {
		return res, nil
	}

	issuePerCTA := k.issueWorkPerCTA()
	memPerCTA := k.memWorkPerCTA()
	ctaIssueCap := float64(k.BlockSize) * d.PerThreadIPC
	// Each lane can request up to 4 bytes per cycle; this bounds how much
	// DRAM bandwidth one SM's load/store units can consume.
	smMemCap := float64(d.CoresPerSM) * 4

	nSM := d.NumSMs
	ints := make([]int, 3*nSM)
	resident, issueN, memN := ints[:nSM], ints[nSM:2*nSM], ints[2*nSM:]
	floats := make([]float64, 5*nSM)
	perSMIssueUsed, issueShare, smRate := floats[:nSM], floats[nSM:2*nSM], floats[2*nSM:3*nSM]
	issueMin, memMin := floats[3*nSM:4*nSM], floats[4*nSM:] // least work left among an SM's demanders
	bools := make([]bool, 2*nSM)
	everUsed, unfilled := bools[:nSM], bools[nSM:]
	ctas := make([]cta, 0, min(totalSlots, k.GridSize))
	pending := k.GridSize

	dispatch := func() {
		for pending > 0 {
			sm := cfg.Policy.pickSM(resident, caps)
			if sm < 0 {
				return
			}
			resident[sm]++
			everUsed[sm] = true
			pending--
			ctas = append(ctas, cta{sm: sm, remIssue: issuePerCTA, remMem: memPerCTA})
		}
	}
	dispatch()

	var (
		now            float64 // cycles
		energyJ        float64
		issueUtilInt   float64 // ∫ issue-utilization dt
		dramUtilInt    float64
		maxResident    int
		dramCapacity   = d.BytesPerCycle()
		issueCapPerSM  = float64(d.CoresPerSM)
		secondsPerCyc  = 1 / (d.ClockMHz * 1e6)
		gatedStaticSMs = 0
	)
	if cfg.PowerGateIdle {
		for _, c := range caps {
			if c == 0 {
				gatedStaticSMs++
			}
		}
	}

	for len(ctas) > 0 {
		if r := len(ctas); r > maxResident {
			maxResident = r
		}
		clear(issueN)
		clear(memN)
		for sm := range issueMin {
			issueMin[sm], memMin[sm] = math.Inf(1), math.Inf(1)
		}
		for i := range ctas {
			c := &ctas[i]
			if c.remIssue > simEpsilon {
				issueN[c.sm]++
				issueMin[c.sm] = min(issueMin[c.sm], c.remIssue)
			}
			if c.remMem > simEpsilon {
				memN[c.sm]++
				memMin[c.sm] = min(memMin[c.sm], c.remMem)
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
			share := min(issueCapPerSM/float64(n), ctaIssueCap)
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

		// --- Integrate power over dt. ---
		if dt > 0 {
			power := d.IdlePowerW
			activeStaticSMs := d.NumSMs - gatedStaticSMs
			power += float64(activeStaticSMs) * d.SMStaticPowerW
			for sm := 0; sm < d.NumSMs; sm++ {
				if caps[sm] == 0 && cfg.PowerGateIdle {
					continue
				}
				power += d.SMDynPowerW * (perSMIssueUsed[sm] / issueCapPerSM)
			}
			achievedGBps := totalMemRate * d.ClockMHz * 1e6 / 1e9
			power += d.DRAMPowerPerGBps * achievedGBps
			energyJ += power * dt * secondsPerCyc
			issueUtilInt += dt * totalIssueRate / (issueCapPerSM * float64(d.NumSMs))
			dramUtilInt += dt * totalMemRate / dramCapacity
		}

		// --- Advance state and retire completed CTAs. ---
		now += dt
		live := 0
		for i := range ctas {
			c := &ctas[i]
			if c.remIssue > simEpsilon {
				c.remIssue -= issueShare[c.sm] * dt
			}
			if c.remMem > simEpsilon {
				c.remMem -= smRate[c.sm] * dt
			}
			if c.remIssue <= simEpsilon*issuePerCTA+simEpsilon && c.remMem <= simEpsilon*memPerCTA+simEpsilon {
				resident[c.sm]--
				continue
			}
			if live != i {
				ctas[live] = *c
			}
			live++
		}
		completed := len(ctas) - live
		ctas = ctas[:live]
		if completed > 0 {
			dispatch()
		} else if dt == 0 {
			return Result{}, fmt.Errorf("gpu: simulation stalled for kernel %s on %s", k.Name, d.Name)
		}
	}

	res.Cycles = now
	res.TimeMS = d.CyclesToMS(now)
	res.EnergyJ = energyJ
	if now > 0 {
		res.AvgPowerW = energyJ / (now * secondsPerCyc)
		res.IssueUtil = issueUtilInt / now
		res.DRAMUtil = dramUtilInt / now
	}
	for _, u := range everUsed {
		if u {
			res.ActiveSMs++
		}
	}
	res.MaxResident = maxResident
	if res.TimeMS > 0 {
		res.AchievedGFLOPs = k.FLOPs() / (res.TimeMS * 1e-3) / 1e9
	}
	return res, nil
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
// network) and returns per-launch results plus the aggregate.
func (d *Device) Run(launches []Launch) ([]Result, Aggregate, error) {
	return d.RunInjected(launches, nil, nil)
}

// RunObserver receives each launch's result as RunObserved retires it, in
// launch order. It is the profiling hook: a plan execution streams its
// per-layer time/energy breakdown through the observer without a second
// simulation pass.
type RunObserver func(index int, r Result)

// RunObserved is Run with an optional per-launch observer (nil is
// allowed and equivalent to Run).
func (d *Device) RunObserved(launches []Launch, observe RunObserver) ([]Result, Aggregate, error) {
	return d.RunInjected(launches, observe, nil)
}

// RunInjected is RunObserved with a fault injector in the launch loop: an
// injected launch fault fails the run with a typed *LaunchError (Injected
// set), and a slow-kernel fault stretches that launch's simulated time and
// energy by the injector's factor (its achieved GFLOP/s fall by the same).
// A nil injector is the production path and costs nothing; every failure —
// injected or genuine — is returned as a *LaunchError naming the launch
// that died.
func (d *Device) RunInjected(launches []Launch, observe RunObserver, inj *fault.Injector) ([]Result, Aggregate, error) {
	results := make([]Result, 0, len(launches))
	var agg Aggregate
	for i, l := range launches {
		if err := inj.LaunchError(); err != nil {
			return nil, Aggregate{}, &LaunchError{Kernel: l.Kernel.Name, Index: i, Injected: true, Err: err}
		}
		r, err := d.Simulate(l.Kernel, l.Config)
		if err != nil {
			return nil, Aggregate{}, &LaunchError{Kernel: l.Kernel.Name, Index: i, Err: err}
		}
		if f := inj.SlowFactor(); f > 1 {
			r.Cycles *= f
			r.TimeMS *= f
			r.EnergyJ *= f
			r.AchievedGFLOPs /= f // FLOPs ÷ TimeMS: same work, f× the time
		}
		results = append(results, r)
		agg.TimeMS += r.TimeMS
		agg.EnergyJ += r.EnergyJ
		if observe != nil {
			observe(i, r)
		}
	}
	if agg.TimeMS > 0 {
		agg.AvgPowerW = agg.EnergyJ / (agg.TimeMS * 1e-3)
	}
	return results, agg, nil
}
