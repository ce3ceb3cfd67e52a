package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"pcnn"
	"pcnn/internal/fleet"
	"pcnn/internal/serve"
)

// fleetModelTask maps each fleet-served model to its archetype task — the
// same mixed AlexNet+VGG+GoogLeNet surface the BENCH_fleet.json soak
// exercises.
func fleetModelTask() map[string]pcnn.Task {
	return map[string]pcnn.Task{
		"AlexNet":   pcnn.VideoSurveillance(30),
		"VGGNet":    pcnn.AgeDetection(),
		"GoogLeNet": pcnn.ImageTagging(),
	}
}

// newFleet builds the fleet the daemon serves. -fleet N compiles the
// three-model surface for the platform pool and joins N nodes round-robin
// over it; without it the daemon is the N = 1 case, -net under -task on
// one node on -platform. Either way every node builds its servers from
// the one serveConfig.
func newFleet(o *options) (*pcnn.Fleet, error) {
	policy, err := parseFleetPolicy(o.fleetPol)
	if err != nil {
		return nil, err
	}
	cfg, err := o.serveConfig()
	if err != nil {
		return nil, err
	}
	nodes, platforms := o.fleetN, splitComma(o.fleetPlatforms)
	var deployments []*pcnn.FleetDeployment
	if nodes <= 0 {
		nodes, platforms = 1, []string{o.platform}
		d, err := o.deployment()
		if err != nil {
			return nil, err
		}
		deployments = append(deployments, d)
	} else {
		if len(platforms) == 0 {
			return nil, errors.New("fleet: empty platform list")
		}
		pool := platforms
		if nodes < len(pool) {
			pool = pool[:nodes]
		}
		for model, task := range fleetModelTask() {
			d, err := pcnn.CompileFleetDeployment(model, task, pool, false)
			if err != nil {
				return nil, err
			}
			deployments = append(deployments, d)
		}
	}
	reg := pcnn.NewFleetRegistry()
	for _, d := range deployments {
		if err := reg.Register(d); err != nil {
			return nil, err
		}
	}
	fl := pcnn.NewFleet(reg, pcnn.FleetConfig{Policy: policy, Hedge: o.hedge})
	for i := 0; i < nodes; i++ {
		node := pcnn.NewFleetNode(fmt.Sprintf("replica-%d", i), platforms[i%len(platforms)],
			reg, pcnn.FleetNodeConfig{Serve: cfg, Faults: cfg.Faults})
		if err := fl.AddReplica(node); err != nil {
			return nil, err
		}
	}
	return fl, nil
}

// deployment is -net under -task on -platform as a one-platform fleet
// deployment. Its executor is the framework's own (what Framework.Serve
// builds), so -tune serves the trained network.
func (o *options) deployment() (*pcnn.FleetDeployment, error) {
	fw, err := o.framework()
	if err != nil {
		return nil, err
	}
	if fw.Plan == nil {
		if err := fw.CompileOffline(); err != nil {
			return nil, err
		}
	}
	ex, err := serve.NewPlanExecutor(fw.Plan, fw.TuningPath(), fw.Scaled, fw.Table)
	if err != nil {
		return nil, err
	}
	return fleet.NewDeployment(o.netName, fw.Task, map[string]serve.Executor{o.platform: ex})
}

// splitComma splits a comma-separated flag, trimming blanks.
func splitComma(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseFleetPolicy resolves the -fleet-policy flag.
func parseFleetPolicy(s string) (pcnn.FleetPolicy, error) {
	switch s {
	case "ring", "":
		return pcnn.FleetPolicyRing, nil
	case "least-slack":
		return pcnn.FleetPolicyLeastSlack, nil
	}
	return pcnn.FleetPolicyRing, fmt.Errorf("unknown -fleet-policy %q (want ring or least-slack)", s)
}

// runDaemon serves the fleet's HTTP API (fleet.Handler: /infer, /predict,
// /stats, /trace, /profile, /fleet, /healthz, /metrics, /swap, /busy — the
// mux the e2e harness drives) while a background sweep ejects unhealthy
// replicas and readmits them after cooldown.
func runDaemon(addr string, fl *pcnn.Fleet) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if ej, re := fl.CheckHealth(); ej > 0 || re > 0 {
					log.Printf("fleet: health sweep ejected %d, readmitted %d", ej, re)
				}
			case <-stop:
				return
			}
		}
	}()
	log.Printf("fleet of %d replicas serving %s on %s",
		len(fl.Snapshot().Replicas), strings.Join(fl.Registry().Models(), "+"), addr)
	return http.ListenAndServe(addr, pcnn.NewFleetHandler(fl))
}

// runFleetBench writes the deterministic fleet soak (BENCH_fleet.json).
// requests > 0 sets the total request target per grid row, split evenly
// across the three models (rounded up, so `-requests 1000000` drives at
// least a million requests per row through the fixed-size row
// aggregate). smoke shrinks the grid to seconds and enforces
// SoakReport.Check, exiting nonzero on violation — the `make fleet-smoke`
// gate.
func runFleetBench(path string, seed int64, requests int, smoke bool) error {
	spec := fleet.SoakSpec{Seed: seed}
	if requests > 0 {
		spec.RequestsPerModel = (requests + 2) / 3
	}
	if smoke {
		spec.RequestsPerModel = 60
		spec.ReplicaCounts = []int{1, 3}
	}
	start := time.Now()
	rep, err := fleet.RunSoak(spec)
	if err != nil {
		return err
	}
	log.Printf("fleet soak: %d rows in %.1fs", len(rep.Rows), time.Since(start).Seconds())
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if path != "-" {
		log.Printf("fleet soak: wrote %s", path)
	}
	if smoke {
		if err := rep.Check(); err != nil {
			return fmt.Errorf("fleet-smoke: %w", err)
		}
		log.Printf("fleet-smoke OK: %d rows, latency falls with replicas, swaps clean", len(rep.Rows))
	}
	return nil
}
