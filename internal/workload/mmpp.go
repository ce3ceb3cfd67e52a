package workload

import (
	"math"
	"math/rand"
	"time"
)

// MMPP — a Markov-modulated Poisson process. Real request streams are not
// stationary: interactive traffic bursts when an app goes viral,
// background tagging drains in waves, and the paper's mixed-archetype
// evaluation needs arrival processes whose *rate itself* is a random
// process. An MMPP cycles through states, each a Poisson process at its
// own rate, dwelling in each state for an exponentially distributed time;
// the long-run mean rate is the dwell-weighted blend of the state rates.

// MMPPState is one regime of an MMPP: a Poisson arrival rate and the mean
// time the process dwells in the state before switching to the next.
type MMPPState struct {
	// RateRPS is the state's Poisson arrival rate in requests/second.
	// Non-positive, NaN or infinite rates are treated as a silent state
	// (no arrivals while dwelling).
	RateRPS float64
	// MeanDwell is the state's mean sojourn time; the actual dwell is
	// exponential with this mean. Non-positive, NaN or infinite dwells are
	// clamped to one second.
	MeanDwell time.Duration
}

// MMPPArrivals is a seeded Markov-modulated Poisson process cycling
// round-robin through its states. It implements Arrivals; Next is not safe
// for concurrent use (drive one process per submitting goroutine, the way
// the load generators do).
type MMPPArrivals struct {
	states []MMPPState
	rng    *rand.Rand
	cur    int
	// dwell is the virtual time left in the current state.
	dwell time.Duration
}

// maxSilentDwell bounds how much silent-state time a single Next call can
// accumulate, so a degenerate spec (every state silent) still terminates.
const maxSilentDwell = time.Hour

// NewMMPPArrivals builds a seeded MMPP over the given states. Invalid
// rates become silent states and invalid dwells one second (see
// MMPPState); an empty state list falls back to a single 10 req/s state.
func NewMMPPArrivals(states []MMPPState, seed int64) *MMPPArrivals {
	clean := make([]MMPPState, 0, len(states))
	for _, s := range states {
		if math.IsNaN(s.RateRPS) || math.IsInf(s.RateRPS, 0) || s.RateRPS < 0 {
			s.RateRPS = 0
		}
		if s.MeanDwell <= 0 {
			s.MeanDwell = time.Second
		}
		clean = append(clean, s)
	}
	if len(clean) == 0 {
		clean = []MMPPState{{RateRPS: 10, MeanDwell: time.Second}}
	}
	m := &MMPPArrivals{states: clean, rng: rand.New(rand.NewSource(seed))}
	m.dwell = m.drawDwell()
	return m
}

// drawDwell samples the current state's exponential sojourn time.
func (m *MMPPArrivals) drawDwell() time.Duration {
	mean := m.states[m.cur].MeanDwell
	return time.Duration(m.rng.ExpFloat64() * float64(mean))
}

// Next returns the gap until the next arrival, crossing state boundaries
// as needed: a candidate exponential gap at the current rate that outruns
// the state's remaining dwell is discarded, the elapsed dwell is banked,
// and the draw restarts in the next state (the standard MMPP thinning-free
// construction; the memoryless property makes the restart exact).
func (m *MMPPArrivals) Next() time.Duration {
	var elapsed time.Duration
	var silent time.Duration
	for {
		rate := m.states[m.cur].RateRPS
		if rate > 0 {
			gap := time.Duration(m.rng.ExpFloat64() / rate * float64(time.Second))
			if gap <= m.dwell {
				m.dwell -= gap
				return elapsed + gap
			}
		}
		// No arrival inside this state's remaining dwell: advance to the
		// next state and redraw.
		elapsed += m.dwell
		if rate <= 0 {
			silent += m.dwell
			if silent > maxSilentDwell {
				return elapsed
			}
		}
		m.cur = (m.cur + 1) % len(m.states)
		m.dwell = m.drawDwell()
	}
}

// BurstyArrivals is the scenario matrix's standard two-state MMPP around a
// target mean rate: a calm state at half the rate (mean dwell 2 s) and a
// burst state at three times the rate (mean dwell 0.5 s), whose
// dwell-weighted blend is exactly the target: (0.5r·2 + 3r·0.5)/2.5 = r.
func BurstyArrivals(rate float64, seed int64) *MMPPArrivals {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		rate = 10
	}
	return NewMMPPArrivals([]MMPPState{
		{RateRPS: 0.5 * rate, MeanDwell: 2 * time.Second},
		{RateRPS: 3 * rate, MeanDwell: 500 * time.Millisecond},
	}, seed)
}
