package serve

import (
	"testing"
	"time"

	"pcnn/internal/satisfaction"
)

// statClock is an advanceable fake clock for exercising idle gaps without
// sleeping.
type statClock struct{ t time.Time }

func newStatClock() *statClock      { return &statClock{t: time.Unix(1_700_000_000, 0)} }
func (c *statClock) now() time.Time { return c.t }
func (c *statClock) advance(s int)  { c.t = c.t.Add(time.Duration(s) * time.Second) }
func (c *statClock) record(s *stats, n int) {
	for i := 0; i < n; i++ {
		s.record(Result{ResponseMS: 1, DeadlineMet: true})
	}
}

// TestWindowedThroughputIdleGap is the regression for the throughput bug:
// ThroughputRPS used to be completions ÷ uptime, so any idle period
// depressed the reported rate forever. The windowed rate must recover to
// the live rate after an idle gap, while the lifetime average (still
// exported as LifetimeRPS) stays diluted.
func TestWindowedThroughputIdleGap(t *testing.T) {
	clk := newStatClock()
	st := newStatsClock(clk.now)

	// 10 seconds at 10 completions/s.
	for i := 0; i < 10; i++ {
		clk.record(st, 10)
		clk.advance(1)
	}
	if rps := st.windowedRPS(); rps < 8 || rps > 12 {
		t.Fatalf("steady-state windowed rate = %v, want ~10", rps)
	}

	// 100 idle seconds — over three windows of silence.
	clk.advance(100)

	// A full window's worth of traffic at 10/s.
	for i := 0; i < throughputWindowSec; i++ {
		clk.record(st, 10)
		clk.advance(1)
	}

	windowed := st.windowedRPS()
	lifetime := st.lifetimeRPS()
	if windowed < 8 || windowed > 12 {
		t.Fatalf("windowed rate = %v after idle gap, want ≈10 (idle gap must not depress it)", windowed)
	}
	if lifetime >= windowed/2 {
		t.Fatalf("lifetime rate %v not diluted below half the windowed rate %v; clock plumbing broken", lifetime, windowed)
	}
}

// TestStatsIdleGapZeroes: when the gap exceeds the window entirely, the
// windowed rate reads zero while lifetime stays positive.
func TestStatsIdleGapZeroes(t *testing.T) {
	clk := newStatClock()
	st := newStatsClock(clk.now)
	clk.record(st, 50)
	clk.advance(throughputWindowSec + 5)
	if rps := st.windowedRPS(); rps != 0 {
		t.Errorf("windowed rate = %v after gap beyond the window, want 0", rps)
	}
	if rps := st.lifetimeRPS(); rps <= 0 {
		t.Errorf("lifetime rate = %v, want > 0", rps)
	}
}

// TestLatencyReservoirWrap: past latSample the reservoir overwrites the
// oldest samples in ring order instead of growing or stalling.
func TestLatencyReservoirWrap(t *testing.T) {
	st := newStats()
	const extra = 100
	for i := 0; i < latSample+extra; i++ {
		st.record(Result{ResponseMS: float64(i), DeadlineMet: true})
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.lat) != latSample {
		t.Fatalf("reservoir grew to %d, want capped at %d", len(st.lat), latSample)
	}
	if st.latIdx != extra {
		t.Fatalf("ring index = %d after %d overwrites, want %d", st.latIdx, extra, extra)
	}
	min := st.lat[0]
	for _, v := range st.lat {
		if v < min {
			min = v
		}
	}
	if min != extra {
		t.Fatalf("oldest surviving sample = %v, want %v (first %d overwritten)", min, extra, extra)
	}
}

// TestPercentilesEdgeCases: the snapshot's latency percentiles over
// empty, single-sample, all-equal and out-of-order reservoirs.
func TestPercentilesEdgeCases(t *testing.T) {
	percentiles := func(sample []float64) (p50, p95, p99 float64) {
		st := newStats()
		st.lat = sample
		snap := st.snapshot(satisfaction.ImageTagging(), 0, 0, 0, 0, BreakerClosed, 0, 0)
		return snap.P50MS, snap.P95MS, snap.P99MS
	}
	if p50, p95, p99 := percentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Errorf("empty sample: got %v %v %v, want zeros", p50, p95, p99)
	}
	if p50, p95, p99 := percentiles([]float64{7.5}); p50 != 7.5 || p95 != 7.5 || p99 != 7.5 {
		t.Errorf("single sample: got %v %v %v, want 7.5 everywhere", p50, p95, p99)
	}
	same := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	if p50, p95, p99 := percentiles(same); p50 != 3 || p95 != 3 || p99 != 3 {
		t.Errorf("all-equal sample: got %v %v %v, want 3 everywhere", p50, p95, p99)
	}
	// Shuffled sample: percentiles are nearest-rank over the sorted copy
	// and leave the reservoir's ring order alone.
	ring := []float64{7, 2, 9, 4, 10, 1, 6, 3, 8, 5}
	p50, p95, p99 := percentiles(ring)
	if p50 != 5 || p95 != 10 || p99 != 10 {
		t.Errorf("1..10 percentiles: got %v %v %v, want 5 10 10", p50, p95, p99)
	}
	if ring[0] != 7 || ring[9] != 5 {
		t.Error("snapshot reordered the latency reservoir")
	}
}
