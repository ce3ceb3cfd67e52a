package main

import (
	"fmt"
	"log"
	"os"

	"pcnn/internal/scenario"
)

// runScenarios drives a scenario grid on a virtual clock and writes the
// deterministic rows as JSON. The default grid is the heterogeneous-fleet
// matrix — mixed archetypes, bursty/diurnal arrivals, DVFS, co-running
// interference and seeded chaos (BENCH_scenarios.json); the serve grid is
// the capacity sweep of one -task stream on -net/-platform
// (BENCH_serve.json), gated by -smoke. The same grid and seed always
// produce byte-identical output.
func runScenarios(o *options) error {
	var specs []scenario.Spec
	switch o.grid {
	case "default":
		specs = scenario.DefaultMatrix(o.seed)
	case "smoke":
		specs = scenario.SmokeMatrix(o.seed)
	case "serve":
		specs = scenario.ServeMatrix(o.platform, o.netName,
			scenario.StreamSpec{Task: o.taskName, FPS: o.fps, Requests: o.n}, o.seed)
	default:
		return fmt.Errorf("unknown -grid %q (want default, smoke or serve)", o.grid)
	}
	if o.smoke && o.grid != "serve" {
		return fmt.Errorf("-smoke with -scenarios gates -grid serve only (got %q)", o.grid)
	}
	var eng scenario.Engine
	m, err := eng.RunMatrix(specs, func(i int, name string) {
		log.Printf("scenario %d/%d: %s", i+1, len(specs), name)
	})
	if err != nil {
		return err
	}
	out := os.Stdout
	if o.scenarios != "-" {
		f, err := os.Create(o.scenarios)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := m.EncodeJSON(out); err != nil {
		return err
	}
	if o.scenarios != "-" {
		log.Printf("scenarios: wrote %d rows to %s", len(m.Rows), o.scenarios)
	}
	if o.smoke {
		return checkServeSmoke(m)
	}
	return nil
}

// checkServeSmoke is the batching-regression gate on the serve grid's
// rows (0.5x, 1x, 2x in that order): at capacity the window must actually
// coalesce, and at 2x overload degradation plus early rejection must keep
// the served miss rate bounded.
func checkServeSmoke(m scenario.Matrix) error {
	if len(m.Rows) != 3 {
		return fmt.Errorf("serve smoke: %d rows, want 3 (0.5x, 1x, 2x)", len(m.Rows))
	}
	at1, at2 := m.Rows[1], m.Rows[2]
	switch {
	case !(at1.MeanBatch > 1):
		return fmt.Errorf("serve smoke: mean batch %.3f at capacity, want > 1", at1.MeanBatch)
	case !(at2.MissRate < 0.5):
		return fmt.Errorf("serve smoke: miss rate %.3f at 2x overload, want < 0.5", at2.MissRate)
	}
	log.Printf("serve smoke OK: mean batch %.2f at capacity, miss rate %.3f at 2x", at1.MeanBatch, at2.MissRate)
	return nil
}
