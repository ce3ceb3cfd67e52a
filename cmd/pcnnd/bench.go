package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"pcnn"
	"pcnn/internal/workload"
)

// benchPoint is one load level of the sweep.
type benchPoint struct {
	LoadFactor    float64 `json:"load_factor"`
	RateRPS       float64 `json:"rate_rps"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	Submitted     uint64  `json:"submitted"`
	Completed     uint64  `json:"completed"`
	// Rejected is admission shedding (queue full plus slack-aware early
	// rejection); RejectedUnmeetable is the early-rejection share of it.
	// Missed counts *served* requests whose response exceeded the deadline —
	// rejected and missed are separate failure modes and reported as such.
	Rejected           uint64  `json:"rejected"`
	RejectedUnmeetable uint64  `json:"rejected_unmeetable"`
	Missed             uint64  `json:"deadline_missed"`
	MissRate           float64 `json:"deadline_miss_rate"`
	MeanBatch          float64 `json:"mean_batch"`
	MeanSoC            float64 `json:"mean_soc"`
	EnergyPerImgJ      float64 `json:"energy_per_image_j"`
	Escalations        uint64  `json:"escalations"`
	Level              int     `json:"final_level"`
}

// runBench sweeps three open-loop load levels around the server's
// steady-state capacity on a virtual clock and writes the results as
// JSON. Arrivals, batch formation and execution all happen in simulated
// time — the batcher's own policy (NextFlushDelayMS) decides each flush
// instant, the driver merely replays it against the arrival sequence —
// so the sweep is deterministic under a fixed seed and runs in wall
// milliseconds regardless of the simulated load. With smoke it exits
// nonzero unless batching engages at capacity (mean batch > 1) and
// overload degrades gracefully (miss rate < 50% at 2x).
func runBench(fw *pcnn.Framework, cfg pcnn.ServeConfig, path string, n int, seed int64, smoke bool) error {
	if fw.Plan == nil {
		if err := fw.CompileOffline(); err != nil {
			return err
		}
	}
	cfg.ManualFlush = true
	cfg.Pace = 0
	factors := []float64{0.5, 1, 2}
	points := make([]benchPoint, 0, len(factors))
	capacity := 0.0
	for _, f := range factors {
		pt, cap0, err := benchLevel(fw, cfg, f, capacity, n, seed)
		if err != nil {
			return err
		}
		if capacity == 0 {
			capacity = cap0
		}
		points = append(points, pt)
	}
	out := struct {
		Net         string       `json:"net"`
		Platform    string       `json:"platform"`
		Task        string       `json:"task"`
		CapacityRPS float64      `json:"capacity_rps"`
		Seed        int64        `json:"seed"`
		N           int          `json:"n_per_level"`
		Points      []benchPoint `json:"points"`
	}{fw.Net.Name, fw.Dev.Name, fw.Task.Name, capacity, seed, n, points}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	log.Printf("bench: wrote %s", path)
	if smoke {
		return checkBenchSmoke(points)
	}
	return nil
}

// checkBenchSmoke is the batching-regression gate: at capacity the
// batcher must actually coalesce (the singleton-flush collapse this
// sweep previously documented), and at 2x overload degradation plus
// early rejection must keep the served miss rate bounded.
func checkBenchSmoke(points []benchPoint) error {
	for _, pt := range points {
		switch {
		case pt.LoadFactor == 1 && !(pt.MeanBatch > 1):
			return fmt.Errorf("bench smoke: mean batch %.3f at capacity, want > 1", pt.MeanBatch)
		case pt.LoadFactor == 2 && !(pt.MissRate < 0.5):
			return fmt.Errorf("bench smoke: miss rate %.3f at 2x overload, want < 0.5", pt.MissRate)
		}
	}
	log.Printf("bench smoke OK: mean batch %.2f at capacity, miss rate %.3f at 2x",
		points[1].MeanBatch, points[2].MissRate)
	return nil
}

// benchLevel serves n open-loop arrivals at factor x capacity on a fresh
// server and virtual clock. capacity 0 means derive it from this server
// (first level); the derived value is returned for the rest of the sweep.
func benchLevel(fw *pcnn.Framework, cfg pcnn.ServeConfig, factor, capacity float64, n int, seed int64) (benchPoint, float64, error) {
	clk := workload.NewVirtualClock(workload.Epoch())
	cfg.Clock = clk.Now
	srv, err := fw.Serve(cfg)
	if err != nil {
		return benchPoint{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	defer srv.Close(ctx)

	if capacity == 0 {
		capacity = srv.CapacityRPS()
	}
	rate := capacity * factor
	log.Printf("bench: load %.1fx capacity = %.1f req/s, %d requests", factor, rate, n)

	// Materialise the arrival sequence on the virtual timeline.
	arr := workload.ArrivalsForTask(srv.Task(), rate, seed)
	at := make([]time.Time, n)
	t := workload.Epoch()
	for i := range at {
		if i > 0 {
			t = t.Add(arr.Next())
		}
		at[i] = t
	}

	workers := max(cfg.Workers, 1)
	workerFree := make([]time.Time, workers)
	for i := range workerFree {
		workerFree[i] = workload.Epoch()
	}
	maxBatch := srv.MaxBatch()

	var pending []*pcnn.Future // accepted, not yet flushed (admission order)
	i := 0
	for i < n || len(pending) > 0 {
		// The next worker to free is the one the next batch runs on.
		minIdx := 0
		for w := range workerFree {
			if workerFree[w].Before(workerFree[minIdx]) {
				minIdx = w
			}
		}
		minFree := workerFree[minIdx]

		// When the batcher's own policy would close the pending batch:
		// its reported hold delay from now, immediately when the backlog
		// already fills a batch, and never before a worker frees up.
		var flushAt time.Time
		haveFlush := len(pending) > 0
		if haveFlush {
			d := srv.NextFlushDelayMS()
			if d < 0 || len(pending) >= maxBatch {
				d = 0
			}
			flushAt = clk.Now().Add(time.Duration(d * float64(time.Millisecond)))
			if flushAt.Before(minFree) {
				flushAt = minFree
			}
		}

		if i < n && (!haveFlush || !at[i].After(flushAt)) {
			// Next event: an arrival.
			clk.Set(at[i])
			srv.SetBusyUntil(minFree)
			f, err := srv.Submit()
			switch {
			case err == nil:
				pending = append(pending, f)
			case errors.Is(err, pcnn.ErrQueueFull) || errors.Is(err, pcnn.ErrDeadlineUnmeetable):
				// Shed; the snapshot tallies it.
			default:
				return benchPoint{}, 0, err
			}
			i++
			continue
		}

		// Next event: a flush.
		clk.Set(flushAt)
		srv.SetBusyUntil(minFree)
		moved := srv.FlushOne()
		if moved == 0 {
			break // draining; nothing left to execute
		}
		// One archetype means effective-priority order is admission order:
		// the flushed batch is exactly the first moved pending futures.
		var execMS float64
		failed := false
		for k := 0; k < moved; k++ {
			res, err := pending[k].Wait(ctx)
			if err != nil {
				failed = true
				continue
			}
			execMS = res.ExecMS
		}
		pending = pending[moved:]
		if !failed {
			workerFree[minIdx] = clk.Now().Add(time.Duration(execMS * float64(time.Millisecond)))
		}
	}

	// Throughput in virtual time: the wall-clock snapshot rates are
	// meaningless under a driven clock.
	end := clk.Now()
	for _, wf := range workerFree {
		if wf.After(end) {
			end = wf
		}
	}
	elapsedSec := end.Sub(workload.Epoch()).Seconds()
	snap := srv.Stats()
	tput := 0.0
	if elapsedSec > 0 {
		tput = float64(snap.Completed) / elapsedSec
	}
	return benchPoint{
		LoadFactor:         factor,
		RateRPS:            rate,
		ThroughputRPS:      tput,
		P50MS:              snap.P50MS,
		P99MS:              snap.P99MS,
		Submitted:          snap.Submitted,
		Completed:          snap.Completed,
		Rejected:           snap.Rejected,
		RejectedUnmeetable: snap.RejectedUnmeetable,
		Missed:             snap.DeadlineMissed,
		MissRate:           snap.DeadlineMissRate,
		MeanBatch:          snap.MeanBatch,
		MeanSoC:            snap.MeanSoC,
		EnergyPerImgJ:      snap.EnergyPerImageJ,
		Escalations:        snap.Escalations,
		Level:              snap.Level,
	}, capacity, nil
}
