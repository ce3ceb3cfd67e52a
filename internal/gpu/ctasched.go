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

// smWindow dispatches one launch's CTAs onto its window: a contiguous SM
// range whose SMs share one residency cap. It tracks where the policy's
// next pick lies instead of scanning the window per CTA: PrioritySM's
// lowest SM with a free slot and RoundRobin's least-loaded SM (lowest
// index on ties) only move as CTAs are placed and retired, and both are
// exactly the SM a scan of the window would pick.
type smWindow struct {
	lo      int   // first SM of the window on the device
	res     []int // resident CTAs per window SM, window-relative
	tlp     int   // residency cap of every window SM
	policy  SchedulerPolicy
	pending int // CTAs not yet dispatched
	live    int // CTAs resident in the window
	// PrioritySM: every SM below cursor is full. RoundRobin: no SM holds
	// fewer than level CTAs, and every SM below cursor holds more.
	cursor, level int
}

// place puts one CTA on the SM the policy picks and returns that SM's
// window-relative index, or -1 if every SM is at the cap.
func (w *smWindow) place() int {
	n := len(w.res)
	if w.policy == PrioritySM {
		for w.cursor < n && w.res[w.cursor] >= w.tlp {
			w.cursor++
		}
	} else {
		for w.cursor < n && w.res[w.cursor] != w.level {
			// Past the last SM every SM holds more than level: the least
			// loaded now hold level+1, the first of them from SM 0 on.
			if w.cursor++; w.cursor == n && w.level+1 < w.tlp {
				w.level, w.cursor = w.level+1, 0
			}
		}
	}
	if w.cursor == n {
		return -1
	}
	w.res[w.cursor]++
	w.live++
	return w.cursor
}

// retire removes one CTA from window SM sm.
func (w *smWindow) retire(sm int) {
	w.res[sm]--
	w.live--
	r := w.res[sm]
	switch {
	case w.policy == PrioritySM || r == w.level:
		w.cursor = min(w.cursor, sm)
	case r < w.level: // the one SM now below every other
		w.level, w.cursor = r, sm
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
