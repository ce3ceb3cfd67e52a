package serve

import "testing"

// never and always are escalate() predicates for the controller tests.
func never(int, bool) bool  { return false }
func always(int, bool) bool { return true }

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
		ctl := newController(c.levels, c.base, 4, false)
		if level, _, base := ctl.point(); level != c.wantLevel || base != c.wantLevel || ctl.max != c.wantMax {
			t.Errorf("newController(%d, %d): level %d base %d max %d, want level/base %d max %d",
				c.levels, c.base, level, base, ctl.max, c.wantLevel, c.wantMax)
		}
	}
}

func TestControllerEscalateWalksToFit(t *testing.T) {
	ctl := newController(6, 0, 4, false)
	got, quant := ctl.escalate(func(level int, _ bool) bool { return level >= 3 })
	if got != 3 || ctl.Level() != 3 {
		t.Fatalf("escalate stopped at %d, want 3", got)
	}
	if quant {
		t.Fatal("quant-disabled controller escalated the quant rung")
	}
	if esc := ctl.counts().escalations; esc != 3 {
		t.Fatalf("escalations = %d, want 3", esc)
	}
	// Already fitting: no movement.
	if got, _ := ctl.escalate(always); got != 3 {
		t.Fatalf("escalate moved a fitting level to %d", got)
	}
	// Nothing fits: walks to the ceiling (max) and stops.
	if got, _ := ctl.escalate(never); got != 5 {
		t.Fatalf("escalate under never-fits stopped at %d, want max 5", got)
	}
}

// TestControllerCalibrationPinsCeiling is the PR-2 edge-case table: a
// calibration backtrack pins the ceiling one level down for a cooldown
// window, so escalation cannot immediately re-enter the level that just
// proved too uncertain; the ceiling releases only when the cooldown
// expires.
func TestControllerCalibrationPinsCeiling(t *testing.T) {
	ctl := newController(5, 0, 2, false) // max 4, recoverAfter (cooldown) 2
	ctl.escalate(func(level int, _ bool) bool { return level >= 3 })

	ctl.observe(true, false) // entropy crossed: backtrack 3 → 2
	if ctl.Level() != 2 {
		t.Fatalf("level after calibration = %d, want 2", ctl.Level())
	}
	if cal := ctl.counts().calibrations; cal != 1 {
		t.Fatalf("calibrations = %d, want 1", cal)
	}

	// Cooldown window, flush 1: the ceiling caps escalation at 2.
	if got, _ := ctl.escalate(never); got != 2 {
		t.Fatalf("escalate during cooldown reached %d, want ceiling 2", got)
	}
	ctl.observe(false, false) // cooldown 2 → 1
	if got, _ := ctl.escalate(never); got != 2 {
		t.Fatalf("escalate during cooldown reached %d, want ceiling 2", got)
	}
	ctl.observe(false, false) // cooldown 1 → 0: ceiling releases to max

	if got, _ := ctl.escalate(never); got != 4 {
		t.Fatalf("escalate after cooldown reached %d, want max 4", got)
	}
}

// TestControllerRecalibrationRestartsCooldown: a second entropy crossing
// inside the cooldown window pins a still-lower ceiling and restarts the
// window, rather than letting the original window release it early.
func TestControllerRecalibrationRestartsCooldown(t *testing.T) {
	ctl := newController(5, 0, 2, false)
	ctl.escalate(func(level int, _ bool) bool { return level >= 3 })
	ctl.observe(true, false) // 3 → 2, ceiling 2, cooldown 2
	ctl.observe(true, false) // 2 → 1, ceiling 1, cooldown restarts at 2
	if ctl.Level() != 1 {
		t.Fatalf("level = %d, want 1", ctl.Level())
	}
	if got, _ := ctl.escalate(never); got != 1 {
		t.Fatalf("escalate reached %d, want re-pinned ceiling 1", got)
	}
	ctl.observe(false, false) // cooldown 2 → 1
	if got, _ := ctl.escalate(never); got != 1 {
		t.Fatalf("ceiling released one flush early (reached %d)", got)
	}
	ctl.observe(false, false) // cooldown 1 → 0
	if got, _ := ctl.escalate(never); got != 4 {
		t.Fatalf("escalate after restarted cooldown reached %d, want 4", got)
	}
}

func TestControllerCalibrationAtLevelZero(t *testing.T) {
	ctl := newController(4, 0, 2, false)
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
	if got, _ := ctl.escalate(never); got != 3 {
		t.Fatalf("escalate reached %d, want max 3", got)
	}
}

func TestControllerRecoveryStreak(t *testing.T) {
	ctl := newController(6, 1, 3, false) // base 1, recoverAfter 3
	ctl.escalate(func(level int, _ bool) bool { return level >= 4 })

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

// TestControllerQuantBeforePerforate pins the ladder ordering: under
// pressure the controller tries the quant rung before deepening
// perforation, and only walks levels once quantization alone is not
// enough.
func TestControllerQuantBeforePerforate(t *testing.T) {
	ctl := newController(6, 0, 4, true)

	// Quantization alone rescues the flush: level must not move.
	level, quant := ctl.escalate(func(level int, quant bool) bool { return quant })
	if level != 0 || !quant {
		t.Fatalf("escalate = (%d, %v), want quant at level 0", level, quant)
	}
	if esc := ctl.counts().escalations; esc != 0 {
		t.Fatalf("perforation escalations = %d, want 0", esc)
	}
	if qesc := ctl.counts().quantEscalations; qesc != 1 {
		t.Fatalf("quant escalations = %d, want 1", qesc)
	}

	// Quantization is insufficient: levels walk, with quant staying on.
	level, quant = ctl.escalate(func(level int, quant bool) bool { return quant && level >= 2 })
	if level != 2 || !quant {
		t.Fatalf("escalate = (%d, %v), want quant at level 2", level, quant)
	}
	if esc := ctl.counts().escalations; esc != 2 {
		t.Fatalf("perforation escalations = %d, want 2", esc)
	}
}

// TestControllerQuantVeto is the deterministic calibration-veto test: an
// entropy crossing while quantized switches the rung off and vetoes it
// for exactly the cooldown window — escalate must NEVER return quant
// while the veto holds, no matter the pressure — and the veto releases
// with the cooldown.
func TestControllerQuantVeto(t *testing.T) {
	ctl := newController(4, 0, 3, true) // recoverAfter (cooldown) 3
	if _, quant := ctl.escalate(never); !quant {
		t.Fatal("quant rung did not engage under pressure")
	}

	ctl.observe(true, false) // entropy crossed while quantized
	if _, quant, _ := ctl.point(); quant {
		t.Fatal("quant still on after a quantized entropy crossing")
	}
	if qcal := ctl.counts().quantCalibrations; qcal != 1 {
		t.Fatalf("quant calibrations = %d, want 1", qcal)
	}
	if cal := ctl.counts().calibrations; cal != 0 {
		t.Fatalf("the quantized crossing charged %d perforation calibrations, want 0", cal)
	}
	if _, q := ctl.reachable(); q {
		t.Fatal("reachable() offers the quant rung while vetoed")
	}

	// Every flush inside the cooldown window: maximum pressure, and the
	// rung must stay fenced off.
	for i := 0; i < 3; i++ {
		if _, quant := ctl.escalate(never); quant {
			t.Fatalf("flush %d inside the veto window escalated to quant", i)
		}
		ctl.observe(false, false)
	}

	// Cooldown expired: the rung is available again.
	if _, q := ctl.reachable(); !q {
		t.Fatal("veto did not release with the cooldown")
	}
	if _, quant := ctl.escalate(never); !quant {
		t.Fatal("quant rung unavailable after the veto released")
	}
}

// TestControllerQuantRecoveryOrder: recovery unwinds perforation back to
// base first and releases the quant rung last, mirroring (in reverse) the
// quantize-before-perforate escalation order.
func TestControllerQuantRecoveryOrder(t *testing.T) {
	ctl := newController(4, 0, 2, true)
	ctl.escalate(func(level int, quant bool) bool { return quant && level >= 2 })

	for i := 0; i < 2; i++ {
		ctl.observe(false, true)
	}
	if level, quant, _ := ctl.point(); level != 1 || !quant {
		t.Fatalf("after streak 1: level %d quant %v, want level 1 quantized", level, quant)
	}
	for i := 0; i < 2; i++ {
		ctl.observe(false, true)
	}
	if level, quant, _ := ctl.point(); level != 0 || !quant {
		t.Fatalf("after streak 2: level %d quant %v, want level 0 quantized", level, quant)
	}
	for i := 0; i < 2; i++ {
		ctl.observe(false, true)
	}
	if level, quant, _ := ctl.point(); level != 0 || quant {
		t.Fatalf("after streak 3: level %d quant %v, want full precision at base", level, quant)
	}
	if rec := ctl.counts().recoveries; rec != 3 {
		t.Fatalf("recoveries = %d, want 3", rec)
	}
}

// TestControllerPointNeverTorn: a writer walks the controller round a fixed
// cycle — escalate to (2, quant), then three recoveries (1, quant) →
// (0, quant) → (0, fp32) — while a reader takes point() as fast as it can.
// Every pair it sees must be a state on the walk: level and quant read
// under separate locks let two observes land in between and return
// (1, fp32) or (2, fp32), operating points the controller was never at.
// Run under -race -cpu 1,2 by `make chaos`.
func TestControllerPointNeverTorn(t *testing.T) {
	type pt struct {
		level int
		quant bool
	}
	onWalk := map[pt]bool{{0, false}: true, {2, true}: true, {1, true}: true, {0, true}: true}
	ctl := newController(4, 0, 1, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			ctl.escalate(func(level int, quant bool) bool { return quant && level >= 2 })
			for j := 0; j < 3; j++ {
				ctl.observe(false, true)
			}
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if level, quant, _ := ctl.point(); level != 0 || quant {
				t.Fatalf("walk ended at (%d, %v), want (0, fp32)", level, quant)
			}
			return
		default:
		}
		if level, quant, base := ctl.point(); !onWalk[pt{level, quant}] || base != 0 {
			t.Fatalf("read %d: point() = (%d, %v, base %d), a state the controller was never at", reads, level, quant, base)
		}
	}
}
