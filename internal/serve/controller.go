package serve

import "sync"

// controller owns the degradation level shared by the batcher and the
// worker pool. It is the run-time manager of Fig 10 as an event-driven
// loop: the batcher *escalates* (deeper perforation, faster, less
// accurate) when the oldest request's slack goes negative, and the workers
// *calibrate* — backtrack one level along the tuning path (Section
// IV.C.3) — when a batch's measured entropy crosses the user's threshold.
// A calibration also pins a ceiling one level down for a cooldown window
// so the very next flush cannot immediately re-escalate into the level
// that just proved too uncertain. Streaks of quiet batches walk the level
// back toward base from either side (see observe).
type controller struct {
	// base is the preferred point: the most aggressive level within the
	// entropy threshold. base, max and recoverAfter are immutable after
	// construction and read without the lock.
	base         int
	max          int
	recoverAfter int

	mu        sync.Mutex
	level     int
	ceiling   int // calibration-imposed escalation cap
	cooldown  int // flushes left until the ceiling releases
	confident int

	ctrlCounts
}

// ctrlCounts are the controller's lifetime tallies: level escalations,
// entropy calibrations and recoveries.
type ctrlCounts struct {
	escalations  uint64
	calibrations uint64
	recoveries   uint64
}

func newController(levels, base, recoverAfter int) *controller {
	if levels < 1 {
		levels = 1
	}
	max := levels - 1
	if base < 0 {
		base = 0
	}
	if base > max {
		base = max
	}
	return &controller{
		level:        base,
		base:         base,
		max:          max,
		ceiling:      max,
		recoverAfter: recoverAfter,
	}
}

// Level returns the current degradation level.
func (c *controller) Level() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// reachable returns the deepest level escalation can currently use: the
// path's end normally, or the calibration-imposed ceiling while a
// backtrack cooldown holds. Admission prices its early-rejection check
// here — a level entropy calibration has fenced off cannot save anyone.
func (c *controller) reachable() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ceiling
}

// escalate raises the level until fits(level) reports the flush would
// meet its deadline, or the (possibly calibration-lowered) ceiling stops
// it. It returns the level the flush executes at. The level path is
// ordered by the offline tuner's TE ranking (Eq 14), so the first fitting
// level is the cheapest escalation in entropy terms.
func (c *controller) escalate(fits func(level int) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !fits(c.level) && c.level < c.ceiling {
		c.level++
		c.escalations++
	}
	return c.level
}

// calmFrac of the entropy threshold bounds a calm batch's entropy.
const calmFrac = 0.8

// observe folds one executed batch's signals back into the level.
// entropyExceeded triggers the calibration backtrack; a streak of
// comfortable batches (ample slack) eases an escalated level back down to
// base, and a streak of calm batches (entropy ≤ calmFrac of the threshold)
// climbs a calibrated level back up to it.
func (c *controller) observe(entropyExceeded, calm, comfortable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cooldown > 0 {
		c.cooldown--
		if c.cooldown == 0 {
			c.ceiling = c.max
		}
	}
	switch {
	case entropyExceeded && c.level > 0:
		c.level--
		c.calibrations++
		c.ceiling = c.level
		c.cooldown = c.recoverAfter
		c.confident = 0
	case comfortable && c.level > c.base, calm && c.level < c.base:
		// A quiet streak steps toward base; an upward one ends no sooner
		// than a calibration's cooldown, so it never passes the ceiling.
		if c.confident++; c.confident >= c.recoverAfter {
			if c.level > c.base {
				c.level--
			} else {
				c.level++
			}
			c.recoveries++
			c.confident = 0
		}
	default:
		c.confident = 0
	}
}

// counts returns the lifetime tallies, all read under one lock.
func (c *controller) counts() ctrlCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrlCounts
}
