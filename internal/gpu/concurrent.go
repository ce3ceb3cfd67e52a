package gpu

import "fmt"

// Spatial multi-tasking (Section III.D.2). P-CNN's resource model frees
// maxSM−optSM SMs per layer; instead of power gating them, they can host
// a co-runner. SimulateConcurrent runs several kernels simultaneously on
// disjoint SM windows (LaunchConfig.SMOffset/SMLimit) sharing the DRAM
// channel, which is what the paper's "release SMs to perform other tasks"
// amounts to. It is the same event loop as Simulate with more than one
// window owner; windows that overlap are rejected with ErrSMOverlap.

// ConcurrentResult reports a co-run: per-kernel completion plus the shared
// totals.
type ConcurrentResult struct {
	PerKernel []Result // Cycles/TimeMS are per-kernel completion; energy is shared
	TotalMS   float64
	EnergyJ   float64
	AvgPowerW float64
}

// SimulateConcurrent runs all launches starting at time zero until every
// kernel drains. It is deterministic.
func (d *Device) SimulateConcurrent(launches []Launch) (ConcurrentResult, error) {
	if len(launches) == 0 {
		return ConcurrentResult{}, fmt.Errorf("gpu: SimulateConcurrent needs at least one launch")
	}
	perKernel := make([]Result, len(launches))
	total, err := d.simulate(launches, perKernel)
	if err != nil {
		return ConcurrentResult{}, err
	}
	return ConcurrentResult{
		PerKernel: perKernel,
		TotalMS:   total.TimeMS,
		EnergyJ:   total.EnergyJ,
		AvgPowerW: total.AvgPowerW,
	}, nil
}
