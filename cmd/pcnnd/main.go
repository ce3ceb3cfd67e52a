// Command pcnnd is the P-CNN serving daemon. A daemon always serves a
// fleet behind the one HTTP mux (fleet.Handler): the paper's unit of
// deployment — one model on one platform for one task — is a fleet of one
// node, and -fleet N replicates it across platforms. Requests go through
// the deadline-aware dynamic batcher, degrading gracefully under overload
// via perforation escalation with entropy-driven calibration backtracking.
//
// Modes:
//
//	go run ./cmd/pcnnd -net AlexNet -platform TX1 -task surveillance -addr :8080
//	    HTTP daemon: -net under -task on one node, replica-0, on
//	    -platform; model= may be omitted everywhere. POST /infer serves
//	    one request (429 when admission sheds it), GET /predict?batch=B
//	    is the live Eq 12 forecast a remote HTTPReplica polls, GET /stats
//	    the serving snapshots, GET /trace?n=N recent request traces, GET
//	    /profile the per-layer time/energy breakdown, GET /fleet
//	    membership and health reasons, GET /metrics Prometheus text, GET
//	    /healthz liveness (503 only when no replica is healthy — closed or
//	    breaker-open; serving above the base perforation level is
//	    degradation, not an outage), POST /swap?dvfs=1 hot-swaps the
//	    deployment (each plan recompiled, its degradation path and trained
//	    network kept, so a -tune deployment stays tuned), POST /busy?ms=D
//	    declares a busy horizon.
//	    -debug-addr :6060 additionally serves net/http/pprof.
//
//	go run ./cmd/pcnnd -fleet 3 -addr :8080
//	    the same daemon over N in-process replicas on heterogeneous
//	    platforms serving AlexNet+VGGNet+GoogLeNet: /infer?model=M&client=C
//	    routes by consistent hash (hedging with -hedge), and model= is
//	    required wherever it selects one model. The serving flags
//	    (-batch … -fault-spec) configure every server of every node,
//	    exactly as they do the one-node daemon.
//
//	go run ./cmd/pcnnd -net AlexNet -platform TX1 -task surveillance -load closed -n 100 -smoke
//	    built-in load generator on one in-process server: closed-loop (N
//	    concurrent users, think time zero) or open-loop (-load open -rate
//	    R, Poisson or fixed-fps arrivals from internal/workload). -smoke
//	    exits nonzero unless every request was served with positive mean
//	    SoC.
//
//	go run ./cmd/pcnnd -scenarios FILE [-grid default|smoke|serve]
//	    the deterministic virtual-clock scenario matrix
//	    (BENCH_scenarios.json). -grid serve is BENCH_serve.json instead:
//	    one stream of -task on -net/-platform at 0.5x, 1x and 2x one
//	    worker's capacity, -n requests each; with -smoke it exits nonzero
//	    unless batching engages at 1x (mean batch > 1) and the 2x miss
//	    rate stays under 50%.
//
//	go run ./cmd/pcnnd -fleet-bench FILE
//	    the deterministic virtual-clock soak (BENCH_fleet.json);
//	    -requests R sets its per-row request total (the committed file
//	    carries ≥1,000,000 per row, folded into fixed-size histograms as
//	    they resolve); with -fleet-smoke it shrinks to a seconds-long CI
//	    gate that fails unless the soak invariants hold.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcnn"
	"pcnn/internal/fleet"
	"pcnn/internal/satisfaction"
	"pcnn/internal/workload"
)

// options holds every flag value. serveConfig turns the serving ones
// (workers … seed, faultSpec) into the one serve.Config every server is
// built from, whichever mode builds it.
type options struct {
	netName, platform, taskName, addr, debug string
	fps                                      float64
	tune                                     bool

	workers, batch, queue, retries, breaker int
	pace, execTimeoutMS, breakerCooldownMS  float64
	noDegrade, reject                       bool
	seed                                    int64
	faultSpec                               string

	load    string
	rate    float64
	n, conc int
	smoke   bool

	scenarios, grid string

	fleetN, fleetReqs                    int
	fleetPlatforms, fleetPol, fleetBench string
	hedge, fleetSmoke                    bool
}

// parseFlags declares the flag set on a fresh options value and parses
// args into it, exiting on a bad command line as flag.Parse does.
func parseFlags(args []string) *options {
	o := &options{}
	fs := flag.NewFlagSet("pcnnd", flag.ExitOnError)
	fs.StringVar(&o.netName, "net", "AlexNet", "network: AlexNet, VGGNet or GoogLeNet")
	fs.StringVar(&o.platform, "platform", "TX1", "platform: K20c, TitanX, GTX970m or TX1")
	fs.StringVar(&o.taskName, "task", "surveillance", "task archetype: age, surveillance or tagging")
	fs.Float64Var(&o.fps, "fps", 30, "camera frame rate for -task surveillance")
	fs.StringVar(&o.addr, "addr", "", "HTTP listen address (daemon mode, e.g. :8080)")
	fs.StringVar(&o.debug, "debug-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
	fs.IntVar(&o.workers, "workers", 2, "worker pool size")
	fs.IntVar(&o.batch, "batch", 0, "batch cap (0 = plan's compiled batch)")
	fs.IntVar(&o.queue, "queue", 0, "admission queue capacity (0 = default)")
	fs.Float64Var(&o.pace, "pace", 0, "wall ms per simulated ms (1 = simulated real time)")
	fs.BoolVar(&o.noDegrade, "nodegrade", false, "disable perforation escalation (control config)")
	fs.StringVar(&o.load, "load", "", "load generator mode: open or closed")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate, requests/s (0 = archetype default)")
	fs.IntVar(&o.n, "n", 100, "load generator request count (with -grid serve: requests per row)")
	fs.IntVar(&o.conc, "conc", 4, "closed-loop concurrent users")
	fs.BoolVar(&o.smoke, "smoke", false,
		"exit nonzero unless zero loss and positive SoC (with -grid serve: unless batching engages at 1x and the 2x miss rate stays under 50%)")
	fs.BoolVar(&o.reject, "reject", true,
		"slack-aware early rejection: refuse requests whose deadline no degradation level can meet")
	fs.BoolVar(&o.tune, "tune", false, "train the scaled analogue and attach the accuracy tuner (slow)")
	fs.Int64Var(&o.seed, "seed", 1, "load generator seed")

	fs.StringVar(&o.scenarios, "scenarios", "",
		"run the scenario matrix and write its JSON rows to this file (- for stdout)")
	fs.StringVar(&o.grid, "grid", "default",
		"scenario grid: default (12 scenarios), smoke (4) or serve (-task on -net/-platform at 0.5x/1x/2x one-worker capacity)")

	fs.IntVar(&o.fleetN, "fleet", 0,
		"daemon mode: N in-process replicas spread over -fleet-platforms, serving all three models (0 = one replica on -platform serving -net under -task)")
	fs.StringVar(&o.fleetPlatforms, "fleet-platforms", strings.Join(fleet.MixedPlatforms, ","),
		"comma-separated platform pool the fleet replicas cycle through")
	fs.StringVar(&o.fleetPol, "fleet-policy", "ring", "fleet fallback policy: ring or least-slack")
	fs.BoolVar(&o.hedge, "hedge", false,
		"fleet mode: hedge to a second replica when the primary predicts a deadline miss")
	fs.StringVar(&o.fleetBench, "fleet-bench", "",
		"write the deterministic fleet soak to this JSON file (- for stdout); BENCH_fleet.json's generator")
	fs.BoolVar(&o.fleetSmoke, "fleet-smoke", false,
		"with -fleet-bench: shrink the soak to seconds and exit nonzero unless its invariants hold")
	fs.IntVar(&o.fleetReqs, "requests", 0,
		"with -fleet-bench: total requests per grid row, split evenly across the three models (0 = spec default)")

	fs.StringVar(&o.faultSpec, "fault-spec", "",
		"seeded fault injection, e.g. seed=42,launch=0.05,slow=0.1,slowx=4,corrupt=0.02,sat=0.01,skew=2.5")
	fs.IntVar(&o.retries, "retries", 0, "batch execution retries after a failure (0 = none)")
	fs.Float64Var(&o.execTimeoutMS, "exec-timeout-ms", 0, "per-attempt execution timeout in wall ms (0 = off)")
	fs.IntVar(&o.breaker, "breaker", 0, "circuit breaker threshold: consecutive failures before opening (0 = off)")
	fs.Float64Var(&o.breakerCooldownMS, "breaker-cooldown-ms", 0, "open-breaker cooldown before the half-open probe (0 = 250)")
	fs.Parse(args) // ExitOnError: Parse does not return an error
	return o
}

// serveConfig builds the serve.Config every server runs under — the
// generator's one server and each server of each daemon node alike —
// with the -fault-spec injector attached.
func (o *options) serveConfig() (pcnn.ServeConfig, error) {
	spec, err := pcnn.ParseFaultSpec(o.faultSpec)
	if err != nil {
		return pcnn.ServeConfig{}, err
	}
	inj, err := pcnn.NewFaultInjector(spec)
	if err != nil {
		return pcnn.ServeConfig{}, err
	}
	if inj != nil {
		log.Printf("fault injection on: %s", spec)
	}
	return pcnn.ServeConfig{
		MaxBatch:          o.batch,
		QueueCap:          o.queue,
		Workers:           o.workers,
		Pace:              o.pace,
		DisableDegrade:    o.noDegrade,
		RejectUnmeetable:  o.reject,
		MaxRetries:        o.retries,
		ExecTimeoutMS:     o.execTimeoutMS,
		BreakerThreshold:  o.breaker,
		BreakerCooldownMS: o.breakerCooldownMS,
		Seed:              o.seed,
		Faults:            inj,
	}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcnnd: ")

	if err := run(parseFlags(os.Args[1:])); err != nil {
		log.Fatal(err)
	}
}

// run dispatches on the mode flags.
func run(o *options) error {
	switch {
	case o.scenarios != "":
		return runScenarios(o)
	case o.fleetBench != "":
		return runFleetBench(o.fleetBench, o.seed, o.fleetReqs, o.fleetSmoke)
	case o.fleetN > 0 && o.addr == "":
		return errors.New("-fleet needs -addr (daemon mode)")
	}

	if o.debug != "" {
		go func() {
			log.Printf("pprof on %s/debug/pprof/", o.debug)
			log.Printf("pprof listener: %v", http.ListenAndServe(o.debug, debugMux()))
		}()
	}
	if o.fleetN <= 0 && o.load != "" {
		return runGenerator(o)
	}
	if o.addr == "" {
		return errors.New("nothing to do: pass -addr for daemon mode or -load open|closed for the generator")
	}
	fl, err := newFleet(o)
	if err != nil {
		return err
	}
	return runDaemon(o.addr, fl)
}

// runGenerator drives one in-process server — no HTTP — with the -load
// generator.
func runGenerator(o *options) error {
	fw, err := o.framework()
	if err != nil {
		return err
	}
	cfg, err := o.serveConfig()
	if err != nil {
		return err
	}
	srv, err := fw.Serve(cfg)
	if err != nil {
		return err
	}
	snap, err := generate(srv, o.load, o.rate, o.n, o.conc, o.seed)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	if o.smoke {
		if err := checkSmoke(snap, o.n); err != nil {
			return err
		}
		log.Printf("smoke OK: %d served, p99 %.1fms, mean SoC %.3g",
			snap.Completed, snap.P99MS, snap.MeanSoC)
	}
	return nil
}

// framework deploys -net on -platform for -task: the full Deploy path
// (training the scaled analogue) under -tune, compile-only otherwise.
func (o *options) framework() (*pcnn.Framework, error) {
	task, err := satisfaction.TaskByName(o.taskName, o.fps)
	if err != nil {
		return nil, err
	}
	if o.tune {
		return pcnn.Deploy(o.netName, o.platform, task)
	}
	dev := pcnn.PlatformByName(o.platform)
	if dev == nil {
		return nil, &pcnn.UnknownPlatformError{Name: o.platform}
	}
	return pcnn.New(o.netName, dev, task)
}

// generate drives the built-in load generator and returns the final
// snapshot after a full drain.
func generate(srv *pcnn.Server, mode string, rate float64, n, conc int, seed int64) (pcnn.ServeSnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	var err error
	switch mode {
	case "closed":
		err = closedLoop(ctx, srv, n, conc)
	case "open":
		err = openLoop(ctx, srv, rate, n, seed)
	default:
		err = fmt.Errorf("unknown -load mode %q (want open or closed)", mode)
	}
	if err != nil {
		return pcnn.ServeSnapshot{}, err
	}
	snap := srv.Stats()
	if cerr := srv.Close(ctx); cerr != nil {
		return snap, cerr
	}
	return snap, nil
}

// closedLoop runs conc users, each submitting its next request the moment
// the previous one resolves, until n requests completed.
func closedLoop(ctx context.Context, srv *pcnn.Server, n, conc int) error {
	if conc < 1 {
		conc = 1
	}
	var issued atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, conc)
	for u := 0; u < conc; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(n) {
				f, err := srv.Submit()
				if err != nil {
					if errors.Is(err, pcnn.ErrQueueFull) || errors.Is(err, pcnn.ErrDeadlineUnmeetable) {
						continue // closed loop retries; rejection is still counted
					}
					errCh <- err
					return
				}
				if _, err := f.Wait(ctx); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// openLoop submits n requests on the task's arrival process (Poisson for
// interactive/background, fixed-period for surveillance), never waiting
// for responses: the server must absorb or degrade.
func openLoop(ctx context.Context, srv *pcnn.Server, rate float64, n int, seed int64) error {
	arrivals := workload.ArrivalsForTask(srv.Task(), rate, seed)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(arrivals.Next())
		}
		f, err := srv.Submit()
		if err != nil {
			continue // open-loop drops are recorded in the snapshot
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Wait(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// checkSmoke enforces the smoke-test acceptance bar. Early rejections
// (slack-aware admission shedding work no degradation level could save)
// are an overload response, not a loss, so the gate requires everything
// *accepted* to be served, not zero rejections.
func checkSmoke(snap pcnn.ServeSnapshot, n int) error {
	switch {
	case snap.Failed != 0:
		return fmt.Errorf("smoke: %d requests failed", snap.Failed)
	case snap.Completed+snap.Rejected != uint64(n):
		return fmt.Errorf("smoke: completed %d + rejected %d of %d",
			snap.Completed, snap.Rejected, n)
	case snap.Completed == 0:
		return fmt.Errorf("smoke: nothing completed (%d of %d rejected)", snap.Rejected, n)
	case !(snap.MeanSoC > 0):
		return fmt.Errorf("smoke: mean SoC %v not positive", snap.MeanSoC)
	}
	return nil
}

// debugMux serves the pprof endpoints on their own mux, so profiling
// stays off the serving address entirely unless -debug-addr opts in.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
