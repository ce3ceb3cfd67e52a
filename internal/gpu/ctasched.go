package gpu

// SchedulerPolicy selects which SM receives the next CTA. The paper
// contrasts the hardware's Round-Robin dispatch (spread CTAs across all
// SMs) with P-CNN's Priority-SM dispatch (pack optTLP CTAs per SM onto the
// fewest SMs, so the rest can be power gated) — Fig 7.
type SchedulerPolicy int

const (
	// RoundRobin assigns each new CTA to the allowed SM with the fewest
	// resident CTAs (lowest index on ties), matching the baseline GPU
	// thread-block dispatcher.
	RoundRobin SchedulerPolicy = iota
	// PrioritySM assigns each new CTA to the lowest-indexed allowed SM
	// that still has a free slot, filling SMs one at a time.
	PrioritySM
)

// String returns the policy name.
func (p SchedulerPolicy) String() string {
	switch p {
	case RoundRobin:
		return "RR"
	case PrioritySM:
		return "PSM"
	default:
		return "unknown"
	}
}

// pickSM returns the index of the SM that should receive the next CTA, or
// -1 if every allowed SM is at its residency cap. resident[i] holds the
// current CTA count of SM i; caps[i] its residency limit (0 for disallowed
// SMs).
func (p SchedulerPolicy) pickSM(resident, caps []int) int {
	switch p {
	case PrioritySM:
		for i := range resident {
			if resident[i] < caps[i] {
				return i
			}
		}
		return -1
	default: // RoundRobin: least-loaded allowed SM
		best := -1
		for i := range resident {
			if resident[i] >= caps[i] {
				continue
			}
			if best == -1 || resident[i] < resident[best] {
				best = i
			}
		}
		return best
	}
}

// LaunchConfig controls how a kernel's CTAs are placed onto the device.
type LaunchConfig struct {
	Policy SchedulerPolicy
	// SMOffset is the first SM of the dispatch window (spatial
	// multi-tasking places co-runners at disjoint offsets).
	SMOffset int
	// SMLimit restricts dispatch to SMLimit SMs starting at SMOffset (the
	// paper's optSM). Zero means all SMs from the offset.
	SMLimit int
	// TLPLimit caps resident CTAs per SM below the occupancy limit (the
	// paper's optTLP). Zero means occupancy-limited.
	TLPLimit int
	// PowerGateIdle removes the static power of SMs that never receive a
	// CTA during the launch (P-CNN's power gating of maxSM−optSM SMs).
	PowerGateIdle bool
}

// DefaultLaunch is the baseline hardware behaviour: Round-Robin over all
// SMs at full occupancy with no power gating.
func DefaultLaunch() LaunchConfig { return LaunchConfig{Policy: RoundRobin} }

// window resolves the SMs [lo, hi) a kernel may be dispatched to under
// this launch configuration and tlp, the residency cap on each of them.
func (c LaunchConfig) window(d *Device, k Kernel) (lo, hi, tlp int) {
	tlp = d.OccupancyFor(k).CTAs
	if c.TLPLimit > 0 && c.TLPLimit < tlp {
		tlp = c.TLPLimit
	}
	lo = min(max(c.SMOffset, 0), d.NumSMs)
	hi = d.NumSMs
	if c.SMLimit > 0 && lo+c.SMLimit < hi {
		hi = lo + c.SMLimit
	}
	return lo, hi, tlp
}
