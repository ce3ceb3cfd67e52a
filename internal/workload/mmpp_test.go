package workload

import (
	"math"
	"testing"
	"time"
)

// TestMMPPDeterministicSameSeed: two processes built from the same spec
// and seed produce the identical gap sequence (and state walk), the
// property the scenario engine's byte-reproducible rows rest on.
func TestMMPPDeterministicSameSeed(t *testing.T) {
	states := []MMPPState{
		{RateRPS: 50, MeanDwell: 200 * time.Millisecond},
		{RateRPS: 400, MeanDwell: 50 * time.Millisecond},
	}
	a := NewMMPPArrivals(states, 42)
	b := NewMMPPArrivals(states, 42)
	for i := 0; i < 5000; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("gap %d diverged: %v vs %v", i, ga, gb)
		}
		if a.cur != b.cur {
			t.Fatalf("state %d diverged: %d vs %d", i, a.cur, b.cur)
		}
	}
	// A different seed must diverge somewhere early.
	c := NewMMPPArrivals(states, 43)
	a = NewMMPPArrivals(states, 42)
	same := true
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical gap sequences")
	}
}

// TestMMPPMeanRateConverges: the empirical arrival rate over a long run
// converges to the dwell-weighted blend of the state rates.
func TestMMPPMeanRateConverges(t *testing.T) {
	const target = 120.0
	m := BurstyArrivals(target, 7)
	const n = 200000
	var total time.Duration
	for i := 0; i < n; i++ {
		total += m.Next()
	}
	rate := n / total.Seconds()
	// 5% tolerance: the dwell process adds variance beyond plain Poisson.
	if math.Abs(rate-target)/target > 0.05 {
		t.Fatalf("empirical rate %.2f req/s, want ≈%.2f", rate, target)
	}
}

// TestMMPPSilentStates: silent states pass time without arrivals but the
// process still terminates and keeps producing finite non-negative gaps.
func TestMMPPSilentStates(t *testing.T) {
	m := NewMMPPArrivals([]MMPPState{
		{RateRPS: 0, MeanDwell: 10 * time.Millisecond},
		{RateRPS: 500, MeanDwell: 10 * time.Millisecond},
	}, 3)
	for i := 0; i < 2000; i++ {
		g := m.Next()
		if g < 0 {
			t.Fatalf("gap %d negative: %v", i, g)
		}
	}
	// All-silent spec: Next must still return (bounded by maxSilentDwell).
	dead := NewMMPPArrivals([]MMPPState{{RateRPS: 0, MeanDwell: time.Second}}, 1)
	if g := dead.Next(); g < 0 {
		t.Fatalf("all-silent gap negative: %v", g)
	}
}

// TestMMPPSanitizesStates: NaN/Inf/negative rates and non-positive dwells
// are cleaned up rather than propagated.
func TestMMPPSanitizesStates(t *testing.T) {
	m := NewMMPPArrivals([]MMPPState{
		{RateRPS: math.NaN(), MeanDwell: -time.Second},
		{RateRPS: math.Inf(1), MeanDwell: 0},
		{RateRPS: -5, MeanDwell: time.Millisecond},
		{RateRPS: 100, MeanDwell: time.Second},
	}, 9)
	for i, s := range m.states {
		if math.IsNaN(s.RateRPS) || math.IsInf(s.RateRPS, 0) || s.RateRPS < 0 {
			t.Errorf("state %d rate %v not sanitized", i, s.RateRPS)
		}
		if s.MeanDwell <= 0 {
			t.Errorf("state %d dwell %v not sanitized", i, s.MeanDwell)
		}
	}
	// Empty spec falls back to a usable default.
	if def := NewMMPPArrivals(nil, 1); len(def.states) != 1 || def.states[0].RateRPS <= 0 {
		t.Errorf("empty spec produced a dead process: %+v", def.states)
	}
}

// FuzzMMPPArrivals hammers the process with arbitrary two-state specs:
// every gap must be non-negative and finite and the state index must stay
// in bounds.
func FuzzMMPPArrivals(f *testing.F) {
	f.Add(50.0, 400.0, int64(200), int64(50), int64(42))
	f.Add(0.0, 1000.0, int64(1), int64(1), int64(7))
	f.Add(1e9, 1e-9, int64(3600000), int64(-5), int64(1))
	f.Add(math.NaN(), math.Inf(1), int64(0), int64(10), int64(99))
	f.Fuzz(func(t *testing.T, r1, r2 float64, d1ms, d2ms, seed int64) {
		m := NewMMPPArrivals([]MMPPState{
			{RateRPS: r1, MeanDwell: time.Duration(d1ms) * time.Millisecond},
			{RateRPS: r2, MeanDwell: time.Duration(d2ms) * time.Millisecond},
		}, seed)
		for i := 0; i < 200; i++ {
			g := m.Next()
			if g < 0 {
				t.Fatalf("gap %d negative: %v", i, g)
			}
			if m.cur < 0 || m.cur >= len(m.states) {
				t.Fatalf("state index %d out of [0,%d)", m.cur, len(m.states))
			}
		}
	})
}
