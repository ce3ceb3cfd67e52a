package pcnn

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"pcnn/internal/obs"
)

// TestBenchLint reads the committed virtual-clock bench files the way a
// reviewer would and fails on a row that cannot be true: requests that
// vanish, percentiles out of order, parts that do not sum to their whole,
// a serve grid that fails its own smoke gate, a latency percentile that is
// not an obs.LatencyHist bucket's lower edge. It holds what is true of
// the files today (ROADMAP item 1(c)); the goodput and knee checks wait
// for the goodput-at-SLO re-base.
func TestBenchLint(t *testing.T) {
	load := func(path string, v any) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	// check reports one violated invariant of one row.
	check := func(ok bool, file, row, format string, args ...any) {
		t.Helper()
		if !ok {
			t.Errorf("%s %s: %s", file, row, fmt.Sprintf(format, args...))
		}
	}
	// onEdge reports whether a percentile is what an obs.LatencyHist
	// reports: a bucket's lower edge, read back exactly from a sample just
	// above it (the 1e-9 step clears float rounding at the bucket boundary
	// and stays far inside the ≈2.3%-wide bucket), or 0 with nothing served.
	onEdge := func(ms float64, served uint64) bool {
		if served == 0 {
			return ms == 0
		}
		var h obs.LatencyHist
		h.Observe(ms * (1 + 1e-9))
		return h.Percentile(1) == ms
	}
	// checkEdges reports percentiles that are not bucket edges.
	checkEdges := func(file, row string, served uint64, ps ...float64) {
		t.Helper()
		for _, p := range ps {
			check(onEdge(p, served), file, row, "percentile %v is not a latency-histogram bucket edge", p)
		}
	}

	var fleet struct {
		Rows []struct {
			Replicas                     int
			Hedge                        bool
			Requests, Served, Shed       uint64
			FailedRequests               uint64 `json:"failed_requests"`
			Submitted, Completed, Failed uint64
			Hedges                       uint64
			HedgeWins                    uint64  `json:"hedge_wins"`
			P50                          float64 `json:"p50_ms"`
			P95                          float64 `json:"p95_ms"`
			P99                          float64 `json:"p99_ms"`
			Models                       []struct {
				Model            string
				Requests, Served uint64
				P50              float64 `json:"p50_ms"`
				P99              float64 `json:"p99_ms"`
			}
		}
	}
	load("BENCH_fleet.json", &fleet)
	if len(fleet.Rows) == 0 {
		t.Error("BENCH_fleet.json has no rows")
	}
	for _, r := range fleet.Rows {
		const f = "BENCH_fleet.json"
		row := fmt.Sprintf("n=%d hedge=%v", r.Replicas, r.Hedge)
		check(r.Requests == r.Served+r.Shed+r.FailedRequests, f, row,
			"requests %d != served %d + shed %d + failed %d", r.Requests, r.Served, r.Shed, r.FailedRequests)
		check(r.Submitted == r.Completed+r.Failed, f, row,
			"submitted %d != completed %d + failed %d", r.Submitted, r.Completed, r.Failed)
		check(r.P50 <= r.P95 && r.P95 <= r.P99, f, row, "percentiles out of order: %v %v %v", r.P50, r.P95, r.P99)
		checkEdges(f, row, r.Served, r.P50, r.P95, r.P99)
		check(r.Hedge || r.Hedges == 0 && r.HedgeWins == 0, f, row,
			"hedging off yet hedges %d, wins %d", r.Hedges, r.HedgeWins)
		var requests, served uint64
		for _, m := range r.Models {
			requests += m.Requests
			served += m.Served
			check(m.P50 <= m.P99, f, row+"/"+m.Model, "p50 %v > p99 %v", m.P50, m.P99)
			checkEdges(f, row+"/"+m.Model, m.Served, m.P50, m.P99)
		}
		check(requests == r.Requests && served == r.Served, f, row,
			"model rows sum to %d requests / %d served, row has %d / %d", requests, served, r.Requests, r.Served)
	}

	// BENCH_scenarios.json and BENCH_serve.json are both scenario matrices.
	type counts struct{ Requests, Completed, Failed, Rejected uint64 }
	type matrix struct {
		Rows []struct {
			Name string
			counts
			MeanBatch float64 `json:"mean_batch"`
			MissRate  float64 `json:"deadline_miss_rate"`
			P50       float64 `json:"p50_ms"`
			P99       float64 `json:"p99_ms"`
			Streams   []struct {
				Task string
				counts
				Submitted uint64
				P50       float64 `json:"p50_ms"`
				P99       float64 `json:"p99_ms"`
			}
		}
	}
	matrices := map[string]*matrix{"BENCH_scenarios.json": {}, "BENCH_serve.json": {}}
	for f, m := range matrices {
		load(f, m)
		if len(m.Rows) == 0 {
			t.Errorf("%s has no rows", f)
		}
		for _, r := range m.Rows {
			var sum counts
			for _, s := range r.Streams {
				row := r.Name + "/" + s.Task
				check(s.Submitted+s.Rejected == s.Requests, f, row,
					"submitted %d + rejected %d != requests %d", s.Submitted, s.Rejected, s.Requests)
				check(s.Completed+s.Failed == s.Submitted, f, row,
					"completed %d + failed %d != submitted %d", s.Completed, s.Failed, s.Submitted)
				check(s.P50 <= s.P99, f, row, "p50 %v > p99 %v", s.P50, s.P99)
				checkEdges(f, row, s.Completed, s.P50, s.P99)
				sum.Requests += s.Requests
				sum.Completed += s.Completed
				sum.Failed += s.Failed
				sum.Rejected += s.Rejected
			}
			check(sum == r.counts, f, r.Name, "streams sum to %+v, row has %+v", sum, r.counts)
			check(r.P50 <= r.P99, f, r.Name, "p50 %v > p99 %v", r.P50, r.P99)
			checkEdges(f, r.Name, r.Completed, r.P50, r.P99)
		}
	}

	// The serve grid's smoke gate (pcnnd -grid serve -smoke) holds on the
	// committed rows — 0.5x, 1x, 2x of one worker's capacity, in order:
	// batching engages at 1x and the 2x miss rate stays under 50%. More
	// load never lowers the miss rate or the rejected count.
	if serve := matrices["BENCH_serve.json"].Rows; len(serve) != 3 {
		t.Errorf("BENCH_serve.json has %d rows, want 3 (0.5x, 1x, 2x)", len(serve))
	} else {
		check(serve[1].MeanBatch > 1, "BENCH_serve.json", serve[1].Name,
			"mean batch %v at capacity, want > 1", serve[1].MeanBatch)
		check(serve[2].MissRate < 0.5, "BENCH_serve.json", serve[2].Name,
			"miss rate %v at 2x, want < 0.5", serve[2].MissRate)
		for i := 1; i < len(serve); i++ {
			lo, hi := serve[i-1], serve[i]
			check(hi.MissRate >= lo.MissRate, "BENCH_serve.json", hi.Name,
				"miss rate %v below %v at the lighter load %s", hi.MissRate, lo.MissRate, lo.Name)
			check(hi.Rejected >= lo.Rejected, "BENCH_serve.json", hi.Name,
				"rejected %d below %d at the lighter load %s", hi.Rejected, lo.Rejected, lo.Name)
		}
	}
}
