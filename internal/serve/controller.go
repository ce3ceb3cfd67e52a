package serve

import "sync"

// controller owns the degradation level shared by the batcher and the
// worker pool. It is the event-driven form of the paper's run-time
// management loop: the batcher *escalates* (deeper perforation, faster,
// less accurate) when the oldest request's slack goes negative, and the
// workers *calibrate* — backtrack one level along the path, exactly the
// runtimemgr.Manager move — when a batch's measured entropy crosses the
// user's threshold. A calibration also pins a ceiling one level down for
// a cooldown window so the very next flush cannot immediately re-escalate
// into the level that just proved too uncertain.
type controller struct {
	mu           sync.Mutex
	level        int
	base         int // preferred point: most aggressive level within the entropy threshold
	max          int
	ceiling      int // calibration-imposed escalation cap
	cooldown     int // flushes left until the ceiling (and quant veto) release
	recoverAfter int
	confident    int

	// The quantization rung. When enabled, escalation switches the host
	// GEMMs to reduced precision *before* deepening perforation — the
	// quant rung costs less entropy than another level of perforation, so
	// it is the cheapest escalation on the ladder. A batch whose measured
	// entropy crosses the threshold while quantized blames the most recent
	// rung first: quant switches off and is *vetoed* for a cooldown
	// window, exactly as a level calibration pins the ceiling.
	quantEnabled bool
	quant        bool
	quantVeto    bool

	ctrlCounts
}

// ctrlCounts are the controller's lifetime tallies: level escalations,
// entropy calibrations and recoveries, and the quant rung's own
// escalations and calibrations.
type ctrlCounts struct {
	escalations  uint64
	calibrations uint64
	recoveries   uint64

	quantEscalations  uint64
	quantCalibrations uint64
}

func newController(levels, base, recoverAfter int, quantEnabled bool) *controller {
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
		quantEnabled: quantEnabled,
	}
}

// Level returns the current degradation level.
func (c *controller) Level() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// point returns the operating point — level, whether batches execute
// quantized — and the base level recovery heads for, under one lock. Two
// observes can land between separate reads, (k,q) → (k−1,q) → (k−1,fp32),
// and hand the reader (k, fp32), a point the controller was never at; every
// caller that prices or exports more than the level reads it here.
func (c *controller) point() (level int, quant bool, base int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level, c.quant, c.base
}

// reachable returns the deepest operating point escalation can currently
// use: the path's end normally, or the calibration-imposed ceiling while
// a backtrack cooldown holds, plus whether the quant rung could serve
// (enabled, and either already on or not vetoed). Admission prices its
// early-rejection check here — a rung entropy calibration has fenced off
// cannot save anyone.
func (c *controller) reachable() (level int, quant bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ceiling, c.quantEnabled && (c.quant || !c.quantVeto)
}

// escalate raises the operating point until fits(level, quant) reports the
// flush would meet its deadline, or the (possibly calibration-lowered)
// ceiling stops it. It returns the point the flush executes at. The quant
// rung is tried before any perforation step — quantize-before-perforate:
// reduced precision costs less entropy than deeper perforation, so it is
// the cheapest rung on the ladder — unless an entropy calibration has
// vetoed it for the cooldown window. The level path is ordered by the
// offline tuner's TE ranking (Eq 14), so within perforation the first
// fitting level is likewise the cheapest escalation in entropy terms.
func (c *controller) escalate(fits func(level int, quant bool) bool) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !fits(c.level, c.quant) {
		if c.quantEnabled && !c.quant && !c.quantVeto {
			c.quant = true
			c.quantEscalations++
			continue
		}
		if c.level >= c.ceiling {
			break
		}
		c.level++
		c.escalations++
	}
	return c.level, c.quant
}

// observe folds one executed batch's signals back into the level.
// entropyExceeded triggers the calibration backtrack; comfortable batches
// (ample slack) accumulate toward easing an escalated level back toward
// the base point.
func (c *controller) observe(entropyExceeded, comfortable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cooldown > 0 {
		c.cooldown--
		if c.cooldown == 0 {
			c.ceiling = c.max
			c.quantVeto = false
		}
	}
	switch {
	case entropyExceeded && c.quant:
		// Blame the most recently added rung first: quantization switches
		// off and is vetoed for the cooldown window, so the very next
		// flush cannot re-enter the precision that just proved too
		// uncertain. Perforation backtracks only if entropy stays high at
		// full precision.
		c.quant = false
		c.quantVeto = true
		c.quantCalibrations++
		c.cooldown = c.recoverAfter
		c.confident = 0
	case entropyExceeded && c.level > 0:
		c.level--
		c.calibrations++
		c.ceiling = c.level
		c.cooldown = c.recoverAfter
		c.confident = 0
	case comfortable && (c.level > c.base || c.quant):
		c.confident++
		if c.confident >= c.recoverAfter {
			// Recovery unwinds the ladder in reverse: perforation eases
			// back toward base first, the quant rung releases last.
			if c.level > c.base {
				c.level--
			} else {
				c.quant = false
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
