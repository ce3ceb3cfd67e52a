package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// budget ends a closed loop after a fixed number of ops (warm-up) or at a
// deadline (window); generators ask it before starting each op.
type budget struct {
	ops      int64
	start    time.Time
	deadline time.Time
	started  atomic.Int64
}

func opsBudget(n int) *budget { return &budget{ops: int64(n)} }

func timeBudget(d time.Duration) *budget {
	now := time.Now()
	return &budget{start: now, deadline: now.Add(d)}
}

func (b *budget) next() bool {
	if b.ops > 0 {
		return b.started.Add(1) <= b.ops
	}
	return time.Now().Before(b.deadline)
}

// windowSlices is how many equal time slices a window's throughput is a
// quantile of. A shared host slows a program for seconds at a time; the
// mean rate over a window carries every such stretch, a quantile of the
// slice rates does not.
const windowSlices = 20

// The gated speeds of a window: the rate at fastQuantile of its slices and
// the latency at 1 − fastQuantile of its ops.
const fastQuantile = 0.90

// windowStats is what one loop observed. Each generator fills its own and
// the loop merges them; measure adds the process counters around a window.
type windowStats struct {
	attempted int
	failed    int
	lat       *histogram // successful ops only: a failed op is never fast

	// Per-slice credit of a timed window (zero width for a counted loop):
	// a successful op adds one unit, spread over the slices its lifetime
	// overlaps in proportion to the overlap, so slow ops (a 300 ms sweep)
	// do not quantize a slice's rate.
	sliceStart time.Time
	sliceWidth time.Duration
	credit     [windowSlices]float64

	cpu       time.Duration
	allocs    uint64
	allocKB   float64
	gcPauseMS float64
	rssMB     float64 // median of the resident set sampled once a slice
}

func newWindowStats(b *budget) *windowStats {
	st := &windowStats{lat: new(histogram)}
	if b.ops == 0 {
		st.sliceStart, st.sliceWidth = b.start, b.deadline.Sub(b.start)/windowSlices
	}
	return st
}

// succeed records one successful op that ran from t0 to t1.
func (w *windowStats) succeed(t0, t1 time.Time) {
	w.lat.record(int64(t1.Sub(t0)))
	if w.sliceWidth == 0 {
		return
	}
	lo, hi := t0.Sub(w.sliceStart), t1.Sub(w.sliceStart)
	first, last := int(lo/w.sliceWidth), int(hi/w.sliceWidth)
	if first == last || hi <= lo {
		if first < windowSlices {
			w.credit[first]++
		}
		return
	}
	for k := first; k <= last && k < windowSlices; k++ {
		from, to := max(lo, time.Duration(k)*w.sliceWidth), min(hi, time.Duration(k+1)*w.sliceWidth)
		w.credit[k] += float64(to-from) / float64(hi-lo)
	}
}

// absorb merges one generator's part into the loop's total.
func (w *windowStats) absorb(p *windowStats) {
	w.attempted += p.attempted
	w.failed += p.failed
	w.lat.merge(p.lat)
	for k, c := range p.credit {
		w.credit[k] += c
	}
}

// drive runs n generators against one budget and merges what they saw.
// Each generator fills stats of its own — nothing is shared inside the
// window — and, when calls is set, a histogram of its own for the traced
// window's per-call timings.
func drive(b *budget, n int, calls bool, gen func(g int, st *windowStats, calls *histogram)) (*windowStats, *histogram) {
	parts := make([]*windowStats, n)
	timings := make([]*histogram, n)
	var wg sync.WaitGroup
	for g := range parts {
		parts[g] = newWindowStats(b)
		if calls {
			timings[g] = new(histogram)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen(g, parts[g], timings[g])
		}(g)
	}
	wg.Wait()
	total := newWindowStats(b)
	var merged *histogram
	if calls {
		merged = new(histogram)
	}
	for g, p := range parts {
		total.absorb(p)
		if calls {
			merged.merge(timings[g])
		}
	}
	return total, merged
}

func (w *windowStats) ok() int { return w.attempted - w.failed }

// throughput is successful ops per second: the q-quantile of a timed
// window's slice rates. A counted loop has no slices and no rate.
func (w *windowStats) throughput(q float64) float64 {
	return quantile(w.sliceRates(), q)
}

// sliceRates is each slice's successful ops per second, in time order.
func (w *windowStats) sliceRates() []float64 {
	if w.sliceWidth == 0 {
		return nil
	}
	rates := make([]float64, windowSlices)
	for k, c := range w.credit {
		rates[k] = c / w.sliceWidth.Seconds()
	}
	return rates
}

// residentMB is the process's current resident set.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS samples the resident set every interval until stop is closed
// and sends the median. The high-water mark (ru_maxrss) of a program that
// allocates fast over a small live heap is set by one GC cycle running
// late on a busy host (15–35 MB across runs of sim_regen); the median
// sample is what the program holds (12.1–12.5 MB).
func sampleRSS(interval time.Duration, stop <-chan struct{}, out chan<- float64) {
	samples := make([]float64, 0, 2*windowSlices)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			samples = append(samples, residentMB())
		case <-stop:
			if len(samples) == 0 {
				samples = append(samples, residentMB())
			}
			out <- median(samples)
			return
		}
	}
}

// measure runs one window and brackets it with the process counters.
func measure(w workload, d time.Duration, tr *tracer) (*windowStats, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	stop, rss := make(chan struct{}), make(chan float64, 1)
	go sampleRSS(d/windowSlices, stop, rss)
	st, err := w.window(d, tr)
	close(stop)
	rssMB := <-rss
	if err != nil {
		return nil, err
	}
	st.rssMB = rssMB
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	st.allocs = m1.Mallocs - m0.Mallocs
	st.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	st.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return st, nil
}
