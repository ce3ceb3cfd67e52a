// Command pcnnd is the P-CNN serving daemon: it deploys one (network,
// platform, task) triple and serves inference requests online through the
// deadline-aware dynamic batcher, degrading gracefully under overload via
// perforation escalation with entropy-driven calibration backtracking.
//
// Modes:
//
//	go run ./cmd/pcnnd -net AlexNet -platform TX1 -task surveillance -addr :8080
//	    HTTP daemon: POST /infer serves one request, GET /stats reports
//	    the serving snapshot, GET /predict?batch=B the live Eq 12
//	    forecast (predicted batch latency, capacity, degrade level,
//	    queue depth, busy horizon), GET /metrics exports Prometheus
//	    text format, GET /trace returns recent request traces,
//	    GET /profile the per-layer time/energy breakdown, GET /healthz
//	    liveness. -debug-addr :6060 additionally serves net/http/pprof.
//
//	go run ./cmd/pcnnd -net AlexNet -platform TX1 -task surveillance -load closed -n 100 -smoke
//	    built-in load generator: closed-loop (N concurrent users, think
//	    time zero) or open-loop (-load open -rate R, Poisson or
//	    fixed-fps arrivals from internal/workload). -smoke exits nonzero
//	    unless every request was served with positive mean SoC.
//	    -bench FILE sweeps three open-loop load levels and writes
//	    throughput/latency/miss-rate JSON.
//
//	go run ./cmd/pcnnd -fleet 3 -addr :8080
//	    fleet daemon: N in-process replicas on heterogeneous platforms
//	    serving AlexNet+VGGNet+GoogLeNet behind one endpoint. POST
//	    /infer?model=M&client=C routes by consistent hash (hedging with
//	    -hedge), GET /predict?model=M&batch=B returns the routed
//	    replica's Eq 12 forecast (what HTTPReplica polls), GET /stats
//	    the per-model serve snapshots, GET /fleet membership and
//	    routing counters, POST /swap?model=M&dvfs=1 hot-swaps a
//	    deployment with zero downtime, POST /busy?model=M&ms=D declares
//	    a busy horizon, GET /metrics merges per-replica serve metrics.
//	    -fleet-bench FILE writes the deterministic virtual-clock soak
//	    (BENCH_fleet.json); -requests R sets its per-row request total
//	    (the committed file carries ≥1,000,000 per row, streamed through
//	    the chunked aggregator); with -fleet-smoke it shrinks to a
//	    seconds-long CI gate that fails unless the soak invariants hold.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pcnn"
	"pcnn/internal/tensor"
	"pcnn/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcnnd: ")

	var (
		netName  = flag.String("net", "AlexNet", "network: AlexNet, VGGNet or GoogLeNet")
		platform = flag.String("platform", "TX1", "platform: K20c, TitanX, GTX970m or TX1")
		taskName = flag.String("task", "surveillance", "task archetype: age, surveillance or tagging")
		fps      = flag.Float64("fps", 30, "camera frame rate for -task surveillance")
		addr     = flag.String("addr", "", "HTTP listen address (daemon mode, e.g. :8080)")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
		workers  = flag.Int("workers", 2, "worker pool size")
		batch    = flag.Int("batch", 0, "batch cap (0 = plan's compiled batch)")
		queue    = flag.Int("queue", 0, "admission queue capacity (0 = default)")
		pace     = flag.Float64("pace", 0, "wall ms per simulated ms (1 = simulated real time)")
		noDeg    = flag.Bool("nodegrade", false, "disable perforation escalation (control config)")
		load     = flag.String("load", "", "load generator mode: open or closed")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate, requests/s (0 = archetype default)")
		n        = flag.Int("n", 100, "load generator request count")
		conc     = flag.Int("conc", 4, "closed-loop concurrent users")
		bench    = flag.String("bench", "", "write a 3-level load sweep to this JSON file")
		smoke    = flag.Bool("smoke", false, "exit nonzero unless zero loss and positive SoC")
		reject   = flag.Bool("reject", true,
			"slack-aware early rejection: refuse requests whose deadline no degradation level can meet")
		tune    = flag.Bool("tune", false, "train the scaled analogue and attach the accuracy tuner (slow)")
		seed    = flag.Int64("seed", 1, "load generator seed")
		backend = flag.String("backend", "",
			"host GEMM backend: auto, blocked (the same path) or serial (the naive test oracle) (default $PCNN_GEMM_BACKEND or auto)")

		scenarios = flag.String("scenarios", "",
			"run the scenario matrix and write its JSON rows to this file (- for stdout)")
		scenProm = flag.String("scenarios-prom", "",
			"with -scenarios: also write the matrix's Prometheus text snapshot to this file")
		grid = flag.String("grid", "default", "scenario grid: default (12 scenarios) or smoke (4)")

		fleetN = flag.Int("fleet", 0,
			"fleet mode: N in-process replicas spread over -fleet-platforms, serving all three models (0 = single-server mode)")
		fleetPlat = flag.String("fleet-platforms", "TitanX,K20c,GTX970m,TX1",
			"comma-separated platform pool the fleet replicas cycle through")
		fleetPol = flag.String("fleet-policy", "ring", "fleet fallback policy: ring or least-slack")
		hedge    = flag.Bool("hedge", false,
			"fleet mode: hedge to a second replica when the primary predicts a deadline miss")
		fleetBench = flag.String("fleet-bench", "",
			"write the deterministic fleet soak to this JSON file (- for stdout); BENCH_fleet.json's generator")
		fleetSmoke = flag.Bool("fleet-smoke", false,
			"with -fleet-bench: shrink the soak to seconds and exit nonzero unless its invariants hold")
		fleetReqs = flag.Int("requests", 0,
			"with -fleet-bench: total requests per grid row, split evenly across the three models (0 = spec default)")

		faultSpec = flag.String("fault-spec", "",
			"seeded fault injection, e.g. seed=42,launch=0.05,slow=0.1,slowx=4,corrupt=0.02,sat=0.01,skew=2.5")
		retries   = flag.Int("retries", 0, "batch execution retries after a failure (0 = none)")
		execTO    = flag.Float64("exec-timeout-ms", 0, "per-attempt execution timeout in wall ms (0 = off)")
		breaker   = flag.Int("breaker", 0, "circuit breaker threshold: consecutive failures before opening (0 = off)")
		breakerCD = flag.Float64("breaker-cooldown-ms", 0, "open-breaker cooldown before the half-open probe (0 = 250)")
	)
	flag.Parse()

	if *backend != "" {
		b, err := tensor.ParseBackend(*backend)
		if err != nil {
			log.Fatal(err)
		}
		tensor.Default().SetBackend(b)
	}

	if *scenarios != "" {
		if err := runScenarios(*scenarios, *scenProm, *grid, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fleetBench != "" {
		if err := runFleetBench(*fleetBench, *seed, *fleetReqs, *fleetSmoke); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *fleetN > 0 {
		if *addr == "" {
			log.Fatal("-fleet needs -addr (daemon mode)")
		}
		policy, err := parseFleetPolicy(*fleetPol)
		if err != nil {
			log.Fatal(err)
		}
		cfg := pcnn.ServeConfig{
			MaxBatch: *batch, QueueCap: *queue, Workers: *workers, Pace: *pace,
			DisableDegrade: *noDeg, Seed: *seed, RejectUnmeetable: true,
		}
		fl, err := buildFleet(*fleetN, splitComma(*fleetPlat), policy, *hedge, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *debug != "" {
			go func() {
				log.Printf("pprof on %s/debug/pprof/", *debug)
				log.Printf("pprof listener: %v", http.ListenAndServe(*debug, debugMux()))
			}()
		}
		log.Fatal(runFleetDaemon(*addr, fl))
	}

	task, err := taskByName(*taskName, *fps)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := deploy(*netName, *platform, task, *tune)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := pcnn.ParseFaultSpec(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	inj, err := pcnn.NewFaultInjector(spec)
	if err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		log.Printf("fault injection on: %s", spec)
	}
	cfg := pcnn.ServeConfig{
		MaxBatch:          *batch,
		QueueCap:          *queue,
		Workers:           *workers,
		Pace:              *pace,
		DisableDegrade:    *noDeg,
		RejectUnmeetable:  *reject,
		MaxRetries:        *retries,
		ExecTimeoutMS:     *execTO,
		BreakerThreshold:  *breaker,
		BreakerCooldownMS: *breakerCD,
		Seed:              *seed,
		Faults:            inj,
	}

	if *debug != "" {
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debug)
			log.Printf("pprof listener: %v", http.ListenAndServe(*debug, debugMux()))
		}()
	}

	switch {
	case *bench != "":
		if err := runBench(fw, cfg, *bench, *n, *seed, *smoke); err != nil {
			log.Fatal(err)
		}
	case *load != "":
		srv, err := fw.Serve(cfg)
		if err != nil {
			log.Fatal(err)
		}
		snap, err := generate(srv, *load, *rate, *n, *conc, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit(os.Stdout, snap)
		if *smoke {
			if err := checkSmoke(snap, *n); err != nil {
				log.Fatal(err)
			}
			log.Printf("smoke OK: %d served, p99 %.1fms, mean SoC %.3g",
				snap.Completed, snap.P99MS, snap.MeanSoC)
		}
	case *addr != "":
		srv, err := fw.Serve(cfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving %s/%s/%s on %s", *netName, *platform, task.Name, *addr)
		log.Fatal(http.ListenAndServe(*addr, newHandler(srv)))
	default:
		log.Fatal("nothing to do: pass -addr for daemon mode or -load open|closed for the generator")
	}
}

// taskByName resolves the archetype flag.
func taskByName(name string, fps float64) (pcnn.Task, error) {
	switch name {
	case "age", "interactive":
		return pcnn.AgeDetection(), nil
	case "surveillance", "realtime":
		return pcnn.VideoSurveillance(fps), nil
	case "tagging", "background":
		return pcnn.ImageTagging(), nil
	}
	return pcnn.Task{}, fmt.Errorf("unknown task %q (want age, surveillance or tagging)", name)
}

// deploy builds the framework: the full Deploy path (training the scaled
// analogue) when tune is set, compile-only otherwise.
func deploy(netName, platform string, task pcnn.Task, tune bool) (*pcnn.Framework, error) {
	if tune {
		return pcnn.Deploy(netName, platform, task)
	}
	dev := pcnn.PlatformByName(platform)
	if dev == nil {
		return nil, &pcnn.UnknownPlatformError{Name: platform}
	}
	return pcnn.New(netName, dev, task)
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

// runScenarios drives the heterogeneous-fleet scenario matrix — mixed
// archetypes, bursty/diurnal arrivals, DVFS, co-running interference and
// seeded chaos on a virtual clock — and writes the deterministic rows as
// JSON (plus, optionally, a Prometheus text snapshot). The same grid and
// seed always produce byte-identical output.
func runScenarios(jsonPath, promPath, grid string, seed int64) error {
	var specs []pcnn.ScenarioSpec
	switch grid {
	case "default":
		specs = pcnn.DefaultScenarios(seed)
	case "smoke":
		specs = pcnn.SmokeScenarios(seed)
	default:
		return fmt.Errorf("unknown -grid %q (want default or smoke)", grid)
	}
	var eng pcnn.ScenarioEngine
	m, err := eng.RunMatrix(specs, func(i int, name string) {
		log.Printf("scenario %d/%d: %s", i+1, len(specs), name)
	})
	if err != nil {
		return err
	}
	out := os.Stdout
	if jsonPath != "-" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := m.EncodeJSON(out); err != nil {
		return err
	}
	if jsonPath != "-" {
		log.Printf("scenarios: wrote %d rows to %s", len(m.Rows), jsonPath)
	}
	if promPath != "" {
		f, err := os.Create(promPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.WritePrometheus(f); err != nil {
			return err
		}
		log.Printf("scenarios: wrote Prometheus snapshot to %s", promPath)
	}
	return nil
}

// prometheusContentType is the text exposition format /metrics serves.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// newHandler wires the HTTP API.
func newHandler(srv *pcnn.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := srv.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Degraded {
			// Degraded serving (breaker tripped, escalated level) and a
			// draining server both answer 503, with the reasons inline, so
			// orchestrators can distinguish "remove from rotation" from a
			// flapping liveness probe.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		emit(w, h)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		emit(w, srv.Stats())
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		batch := 0
		if q := r.URL.Query().Get("batch"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "batch must be a non-negative integer", http.StatusBadRequest)
				return
			}
			batch = v
		}
		w.Header().Set("Content-Type", "application/json")
		emit(w, srv.Predict(batch))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", prometheusContentType)
		if err := srv.WriteMetrics(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 0 // everything held
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		emit(w, srv.Traces(n))
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, _ *http.Request) {
		prof, err := srv.LayerProfile()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotImplemented)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		emit(w, prof)
	})
	mux.HandleFunc("/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		f, err := srv.Submit()
		switch {
		case errors.Is(err, pcnn.ErrQueueFull):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, pcnn.ErrServerClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		res, err := f.Wait(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		emit(w, res)
	})
	return mux
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

// emit writes v as indented JSON.
func emit(w interface{ Write([]byte) (int, error) }, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}
