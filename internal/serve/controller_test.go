package serve

import (
	"math/rand"
	"testing"
)

// never and always are escalate() predicates for the controller tests.
func never(int) bool  { return false }
func always(int) bool { return true }

func TestNewControllerClamps(t *testing.T) {
	cases := []struct {
		levels, base       int
		wantLevel, wantMax int
	}{
		{levels: 5, base: 2, wantLevel: 2, wantMax: 4},
		{levels: 5, base: -3, wantLevel: 0, wantMax: 4},
		{levels: 5, base: 99, wantLevel: 4, wantMax: 4},
		{levels: 0, base: 0, wantLevel: 0, wantMax: 0},
		{levels: -2, base: 1, wantLevel: 0, wantMax: 0},
	}
	for _, c := range cases {
		ctl := newController(c.levels, c.base, 4)
		if level := ctl.Level(); level != c.wantLevel || ctl.base != c.wantLevel || ctl.max != c.wantMax {
			t.Errorf("newController(%d, %d): level %d base %d max %d, want level/base %d max %d",
				c.levels, c.base, level, ctl.base, ctl.max, c.wantLevel, c.wantMax)
		}
	}
}

func TestControllerEscalateWalksToFit(t *testing.T) {
	ctl := newController(6, 0, 4)
	got := ctl.escalate(func(level int) bool { return level >= 3 })
	if got != 3 || ctl.Level() != 3 {
		t.Fatalf("escalate stopped at %d, want 3", got)
	}
	if esc := ctl.counts().escalations; esc != 3 {
		t.Fatalf("escalations = %d, want 3", esc)
	}
	// Already fitting: no movement.
	if got := ctl.escalate(always); got != 3 {
		t.Fatalf("escalate moved a fitting level to %d", got)
	}
	// Nothing fits: walks to the ceiling (max) and stops.
	if got := ctl.escalate(never); got != 5 {
		t.Fatalf("escalate under never-fits stopped at %d, want max 5", got)
	}
}

// TestControllerCalibrationPinsCeiling is the PR-2 edge-case table: a
// calibration backtrack pins the ceiling one level down for a cooldown
// window, so escalation cannot immediately re-enter the level that just
// proved too uncertain; the ceiling releases only when the cooldown
// expires.
func TestControllerCalibrationPinsCeiling(t *testing.T) {
	ctl := newController(5, 0, 2) // max 4, recoverAfter (cooldown) 2
	ctl.escalate(func(level int) bool { return level >= 3 })

	ctl.observe(true, false) // entropy crossed: backtrack 3 → 2
	if ctl.Level() != 2 {
		t.Fatalf("level after calibration = %d, want 2", ctl.Level())
	}
	if cal := ctl.counts().calibrations; cal != 1 {
		t.Fatalf("calibrations = %d, want 1", cal)
	}

	// Cooldown window, flush 1: the ceiling caps escalation at 2.
	if got := ctl.escalate(never); got != 2 {
		t.Fatalf("escalate during cooldown reached %d, want ceiling 2", got)
	}
	ctl.observe(false, false) // cooldown 2 → 1
	if got := ctl.escalate(never); got != 2 {
		t.Fatalf("escalate during cooldown reached %d, want ceiling 2", got)
	}
	ctl.observe(false, false) // cooldown 1 → 0: ceiling releases to max

	if got := ctl.escalate(never); got != 4 {
		t.Fatalf("escalate after cooldown reached %d, want max 4", got)
	}
}

// TestControllerRecalibrationRestartsCooldown: a second entropy crossing
// inside the cooldown window pins a still-lower ceiling and restarts the
// window, rather than letting the original window release it early.
func TestControllerRecalibrationRestartsCooldown(t *testing.T) {
	ctl := newController(5, 0, 2)
	ctl.escalate(func(level int) bool { return level >= 3 })
	ctl.observe(true, false) // 3 → 2, ceiling 2, cooldown 2
	ctl.observe(true, false) // 2 → 1, ceiling 1, cooldown restarts at 2
	if ctl.Level() != 1 {
		t.Fatalf("level = %d, want 1", ctl.Level())
	}
	if got := ctl.escalate(never); got != 1 {
		t.Fatalf("escalate reached %d, want re-pinned ceiling 1", got)
	}
	ctl.observe(false, false) // cooldown 2 → 1
	if got := ctl.escalate(never); got != 1 {
		t.Fatalf("ceiling released one flush early (reached %d)", got)
	}
	ctl.observe(false, false) // cooldown 1 → 0
	if got := ctl.escalate(never); got != 4 {
		t.Fatalf("escalate after restarted cooldown reached %d, want 4", got)
	}
}

func TestControllerCalibrationAtLevelZero(t *testing.T) {
	ctl := newController(4, 0, 2)
	for i := 0; i < 3; i++ {
		ctl.observe(true, false)
	}
	if ctl.Level() != 0 {
		t.Fatalf("level = %d, want 0", ctl.Level())
	}
	if cal := ctl.counts().calibrations; cal != 0 {
		t.Fatalf("level-0 crossings counted %d calibrations, want 0", cal)
	}
	// The un-backtrackable crossing must not leave a stale ceiling.
	if got := ctl.escalate(never); got != 3 {
		t.Fatalf("escalate reached %d, want max 3", got)
	}
}

func TestControllerRecoveryStreak(t *testing.T) {
	ctl := newController(6, 1, 3) // base 1, recoverAfter 3
	ctl.escalate(func(level int) bool { return level >= 4 })

	// Two comfortable batches, then a neutral one: streak resets.
	ctl.observe(false, true)
	ctl.observe(false, true)
	ctl.observe(false, false)
	if ctl.Level() != 4 {
		t.Fatalf("level = %d after broken streak, want 4", ctl.Level())
	}
	// Three consecutive comfortable batches recover exactly one level.
	for i := 0; i < 3; i++ {
		ctl.observe(false, true)
	}
	if ctl.Level() != 3 {
		t.Fatalf("level = %d after full streak, want 3", ctl.Level())
	}
	if rec := ctl.counts().recoveries; rec != 1 {
		t.Fatalf("recoveries = %d, want 1", rec)
	}
	// Recovery walks toward base and stops there, never below.
	for i := 0; i < 12; i++ {
		ctl.observe(false, true)
	}
	if ctl.Level() != 1 {
		t.Fatalf("level = %d after long comfort, want base 1", ctl.Level())
	}
}

// refLadder is the reference model TestControllerMatchesModel checks the
// controller against. It is written from the documented behaviour, not from
// controller.go: the cooldown is an observe-count timestamp rather than a
// countdown, so a shared off-by-one cannot hide.
type refLadder struct {
	level, base, max, ceil, r int
	observes, releaseAt       int // releaseAt: observe number that unpins ceil (0 = unpinned)
	streak                    int
	n                         ctrlCounts
}

func (m *refLadder) escalate(fits func(int) bool) int {
	for m.level < m.ceil && !fits(m.level) {
		m.level++
		m.n.escalations++
	}
	return m.level
}

func (m *refLadder) observe(hot, comfy bool) {
	if m.observes++; m.observes == m.releaseAt {
		m.ceil, m.releaseAt = m.max, 0
	}
	switch {
	case hot && m.level > 0:
		m.level--
		m.n.calibrations++
		m.ceil, m.releaseAt, m.streak = m.level, m.observes+m.r, 0
	case comfy && m.level > m.base:
		if m.streak++; m.streak == m.r {
			m.level--
			m.n.recoveries++
			m.streak = 0
		}
	default:
		m.streak = 0
	}
}

// TestControllerMatchesModel drives the controller and the reference model
// with the same seeded random escalate/observe steps and requires equal
// level, reachable ceiling and tallies after every one, plus the ladder
// invariants: 0 ≤ level ≤ ceiling ≤ max, and a calibration at level k
// keeps k unreachable for exactly recoverAfter observes (a second
// calibration inside the window restarts it). `make chaos` runs it under
// -race -cpu 1,2.
func TestControllerMatchesModel(t *testing.T) {
	configs := []struct{ levels, base, r int }{
		{1, 0, 1}, {2, 1, 1}, {4, 0, 2}, {6, 2, 3}, {6, 5, 2}, {13, 9, 8}, {8, 3, 4}, {3, 0, 5},
	}
	const steps = 2500 // × 8 configs = 20 000
	var total ctrlCounts
	for ci, c := range configs {
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		ctl := newController(c.levels, c.base, c.r)
		max := c.levels - 1
		ref := &refLadder{level: c.base, base: c.base, max: max, ceil: max, r: c.r}
		fenced, fencedFor := -1, 0 // level the last calibration fenced off, observes since
		for step := 0; step < steps; step++ {
			if rng.Intn(5) < 2 {
				target := rng.Intn(max + 2) // max+1: nothing fits
				fits := func(level int) bool { return level >= target }
				if got, want := ctl.escalate(fits), ref.escalate(fits); got != want {
					t.Fatalf("config %d step %d: escalate(≥%d) = %d, model %d", ci, step, target, got, want)
				}
			} else {
				hot, comfy := rng.Intn(4) == 0, rng.Intn(2) == 0
				before, cals := ctl.Level(), ctl.counts().calibrations
				ctl.observe(hot, comfy)
				ref.observe(hot, comfy)
				if ctl.counts().calibrations > cals {
					fenced, fencedFor = before, 0
				} else if fenced >= 0 {
					fencedFor++
				}
			}
			level, ceiling := ctl.Level(), ctl.reachable()
			if level != ref.level || ceiling != ref.ceil || ctl.counts() != ref.n {
				t.Fatalf("config %d step %d: controller (level %d, ceiling %d, %+v), model (level %d, ceiling %d, %+v)",
					ci, step, level, ceiling, ctl.counts(), ref.level, ref.ceil, ref.n)
			}
			if level < 0 || level > ceiling || ceiling > max {
				t.Fatalf("config %d step %d: 0 ≤ level %d ≤ ceiling %d ≤ max %d violated", ci, step, level, ceiling, max)
			}
			if fenced >= 0 && fencedFor < c.r && ceiling >= fenced {
				t.Fatalf("config %d step %d: level %d reachable %d observes after its calibration, want fenced for %d",
					ci, step, fenced, fencedFor, c.r)
			}
			if fenced >= 0 && fencedFor == c.r {
				if ceiling != max {
					t.Fatalf("config %d step %d: ceiling %d still pinned %d observes after the calibration, want max %d",
						ci, step, ceiling, fencedFor, max)
				}
				fenced = -1
			}
		}
		n := ctl.counts()
		total.escalations += n.escalations
		total.calibrations += n.calibrations
		total.recoveries += n.recoveries
	}
	if total.escalations < 100 || total.calibrations < 100 || total.recoveries < 100 {
		t.Errorf("walks too tame to exercise every move: %+v", total)
	}
}
