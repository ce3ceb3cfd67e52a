package serve

import (
	"context"
	"testing"
	"time"

	"pcnn/internal/obs"
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

// TestPercentilesEdgeCases: the snapshot's latency percentiles over
// empty, single-sample, all-equal and out-of-order completions, each the
// lower edge of the bucket holding the nearest-rank sample.
func TestPercentilesEdgeCases(t *testing.T) {
	percentiles := func(sample []float64) (p50, p95, p99 float64) {
		st := newStats()
		for _, ms := range sample {
			st.record(Result{ResponseMS: ms, DeadlineMet: true})
		}
		snap := st.snapshot(satisfaction.ImageTagging(), 0, 0, 0, 0, BreakerClosed, 0, 0)
		return snap.P50MS, snap.P95MS, snap.P99MS
	}
	// edge is the lower edge of ms's bucket: what a lone sample reads back.
	edge := func(ms float64) float64 {
		var h obs.LatencyHist
		h.Observe(ms)
		return h.Percentile(1)
	}
	if p50, p95, p99 := percentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Errorf("empty sample: got %v %v %v, want zeros", p50, p95, p99)
	}
	if e := edge(7.5); !(e <= 7.5 && e > 7.5/1.024) {
		t.Fatalf("edge(7.5) = %v, want within one bucket below 7.5", e)
	}
	if p50, p95, p99 := percentiles([]float64{7.5}); p50 != edge(7.5) || p95 != edge(7.5) || p99 != edge(7.5) {
		t.Errorf("single sample: got %v %v %v, want %v everywhere", p50, p95, p99, edge(7.5))
	}
	same := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	if p50, p95, p99 := percentiles(same); p50 != edge(3) || p95 != edge(3) || p99 != edge(3) {
		t.Errorf("all-equal sample: got %v %v %v, want %v everywhere", p50, p95, p99, edge(3))
	}
	// Out of order: nearest rank over the sorted order, sample 5 at p50 and
	// the maximum at p95 and p99.
	p50, p95, p99 := percentiles([]float64{7, 2, 9, 4, 10, 1, 6, 3, 8, 5})
	if p50 != edge(5) || p95 != edge(10) || p99 != edge(10) {
		t.Errorf("1..10 percentiles: got %v %v %v, want %v %v %v", p50, p95, p99, edge(5), edge(10), edge(10))
	}
}

// TestSnapshotPercentilesCoverEveryCompletion: past 16 384 completions —
// the ring the percentiles were once read from — Stats' p50/p95/p99 and
// Latencies still cover every completion: they equal the histogram of
// exactly the ResponseMS values the futures returned.
func TestSnapshotPercentilesCoverEveryCompletion(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	s, err := NewServer(manualExec{}, satisfaction.ImageTagging(), Config{
		Workers: 1, MaxBatch: 4, QueueCap: 16, ManualFlush: true, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer s.Close(ctx)

	// The first 8 192 requests queue long and the rest briefly, so a
	// window over the most recent 16 384 would lose most of the slow ones.
	const n, slow = 16384 + 8192, 8192
	var want obs.LatencyHist
	futs := make([]*Future, 4)
	at := 0.0
	for i := 0; i < n; i += len(futs) {
		for j := range futs {
			clk.set(at + float64(j))
			if futs[j], err = s.Submit(); err != nil {
				t.Fatalf("submit %d: %v", i+j, err)
			}
		}
		queue := 5.0
		if i < slow {
			queue = 300 + float64(i%97)
		}
		clk.set(at + queue)
		s.Flush()
		for j, f := range futs {
			res, err := f.Wait(ctx)
			if err != nil {
				t.Fatalf("request %d: %v", i+j, err)
			}
			want.Observe(res.ResponseMS)
		}
		at += queue + 100
	}

	snap := s.Stats()
	if snap.Completed != n {
		t.Fatalf("completed %d, want %d", snap.Completed, n)
	}
	if got := s.Latencies(); got != want {
		t.Error("Latencies differs from the histogram of every returned ResponseMS")
	}
	if snap.P50MS != want.Percentile(0.50) || snap.P95MS != want.Percentile(0.95) || snap.P99MS != want.Percentile(0.99) {
		t.Errorf("snapshot p50/p95/p99 = %v/%v/%v, want %v/%v/%v", snap.P50MS, snap.P95MS, snap.P99MS,
			want.Percentile(0.50), want.Percentile(0.95), want.Percentile(0.99))
	}
	if snap.P95MS < 300 {
		t.Errorf("p95 = %v: the first %d slow completions, a third of all, are not counted", snap.P95MS, slow)
	}
}
