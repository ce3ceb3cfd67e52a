package main

import "time"

// Direct-call probes: a per-layer metric that no span of the traced window
// covers is measured by calling the layer's public function in a loop and
// taking the median call. A probe runs until it has both probeMinSamples
// samples and probeBudget of wall time; calls shorter than probeSampleMin
// are grouped so that one sample is long enough for the clock.
const (
	probeBudget     = 250 * time.Millisecond
	probeMinSamples = 5
	probeSampleMin  = 200 * time.Microsecond
)

// probe returns fn's median call time in nanoseconds.
func (c *config) probe(fn func() error) (float64, error) {
	budget, minSamples := probeBudget, probeMinSamples
	if c.smoke {
		budget, minSamples = 5*time.Millisecond, 2
	}
	t0 := time.Now()
	if err := fn(); err != nil { // also warms caches and pools
		return 0, err
	}
	reps := 1
	if first := time.Since(t0); first < probeSampleMin {
		reps = int(probeSampleMin/max(first, 1)) + 1
	}
	var samples []float64
	for start := time.Now(); len(samples) < minSamples || time.Since(start) < budget; {
		s0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(s0))/float64(reps))
	}
	return median(samples), nil
}

// probeNS is probe for functions that cannot fail.
func (c *config) probeNS(fn func()) float64 {
	ns, _ := c.probe(func() error { fn(); return nil }) // fn has no error to report
	return ns
}

// probeMS is probeNS in milliseconds.
func (c *config) probeMS(fn func()) float64 { return c.probeNS(fn) / 1e6 }
