package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"pcnn"
	"pcnn/internal/compile"
	"pcnn/internal/fleet"
	"pcnn/internal/scenario"
	arrivals "pcnn/internal/workload"
)

// simValues are the four simulated-time end-to-end metrics: request-
// weighted aggregates of the scenario matrix rows. They are functions of
// the seed alone and must repeat bit for bit.
type simValues struct {
	soc, ontime, energyJ, p50MS float64
}

func (s simValues) into(m map[string]float64) {
	m["sim_soc_mean"] = s.soc
	m["sim_ontime_frac"] = s.ontime
	m["sim_energy_j_per_image"] = s.energyJ
	m["sim_latency_p50_ms"] = s.p50MS
}

// aggregateMatrix folds the matrix rows, weighting each by its completed
// requests. A request that was shed, failed or rejected counts as late.
func aggregateMatrix(m scenario.Matrix) simValues {
	var v simValues
	var completed, requests float64
	for _, r := range m.Rows {
		c := float64(r.Completed)
		v.soc += r.MeanSoC * c
		v.energyJ += r.EnergyPerImageJ * c
		v.p50MS += r.P50MS * c
		v.ontime += (1 - r.MissRate) * c
		completed += c
		requests += float64(r.Requests)
	}
	if completed == 0 || requests == 0 {
		return simValues{}
	}
	v.soc /= completed
	v.energyJ /= completed
	v.p50MS /= completed
	v.ontime /= requests
	return v
}

// runMatrix evaluates the committed scenario grid at a seed on a fresh
// engine (cold plan cache).
func runMatrix(seed int64) (scenario.Matrix, error) {
	return (&scenario.Engine{}).RunMatrix(scenario.DefaultMatrix(seed), nil)
}

// simColumn is the simulated column every untraced run reports beside its
// host-time metrics.
func simColumn(seed int64) (simValues, error) {
	m, err := runMatrix(seed)
	if err != nil {
		return simValues{}, fmt.Errorf("scenario matrix: %w", err)
	}
	return aggregateMatrix(m), nil
}

// goldenSeed is the seed BENCH_scenarios.json was committed at.
const goldenSeed = 42

// checkGolden regenerates the scenario matrix at the committed seed and
// compares it byte for byte with BENCH_scenarios.json in the checkout.
func checkGolden() error {
	want, err := os.ReadFile("BENCH_scenarios.json")
	if err != nil {
		return err
	}
	m, err := runMatrix(goldenSeed)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := m.EncodeJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return errors.New("scenario matrix at seed 42 differs from the committed BENCH_scenarios.json")
	}
	return nil
}

// simRegen is the simulated side — what the paper actually claims. One op
// is one pass of three public calls: the scenario matrix on a fresh engine
// (compile, co-run simulation, virtual-clock serving under Poisson/MMPP/
// diurnal arrivals and chaos), the fleet soak (hedge off/on rows at three
// replicas), and the six-scheduler evaluation of AlexNet on TX1 for the
// three evaluation tasks. nn/tensor and the wire do nothing here.
type simRegen struct {
	c     *config
	first simValues
	have  bool
	// soakReqPerS is simulated requests per host second of the last
	// traced pass's soak segment.
	soakReqPerS float64
}

const (
	simWarmupPasses = 6
	soakReplicas    = 3
	soakRequests    = 600
)

func (s *simRegen) setup(c *config) error {
	s.c = c
	if err := checkGolden(); err != nil {
		return err
	}
	st := s.loop(opsBudget(c.scale(simWarmupPasses)), nil)
	if st.failed > 0 {
		return fmt.Errorf("%d of %d warm-up passes failed", st.failed, st.attempted)
	}
	return nil
}

func (s *simRegen) window(d time.Duration, tr *tracer) (*windowStats, error) {
	return s.loop(timeBudget(d), tr), nil
}

func (s *simRegen) loop(b *budget, tr *tracer) *windowStats {
	st := newWindowStats(b)
	for b.next() {
		t0 := time.Now()
		err := s.pass(tr, uint64(st.attempted+1))
		st.attempted++
		if err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "bench: sim_regen pass:", err)
			continue
		}
		st.succeed(t0, time.Now())
	}
	return st
}

// pass runs the three segments and checks them.
func (s *simRegen) pass(tr *tracer, req uint64) error {
	root := int32(-1)
	seg := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		i := tr.begin(name, root, req)
		defer tr.finish(i)
		return fn()
	}
	if tr != nil {
		root = tr.begin("pass", -1, req)
		defer tr.finish(root)
	}

	if err := seg("scenario.matrix", func() error {
		m, err := runMatrix(s.c.seed)
		if err != nil {
			return err
		}
		v := aggregateMatrix(m)
		if !s.have {
			s.first, s.have = v, true
		} else if v != s.first {
			return fmt.Errorf("simulated metrics changed between passes: %+v then %+v", s.first, v)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := seg("fleet.soak", func() error {
		t0 := time.Now()
		rep, err := fleet.RunSoak(fleet.SoakSpec{Seed: s.c.seed, ReplicaCounts: []int{soakReplicas}, RequestsPerModel: soakRequests})
		if err != nil {
			return err
		}
		total := 0
		for _, r := range rep.Rows {
			if r.Requests != r.Served+r.Shed+r.FailedRequests {
				return fmt.Errorf("soak row n=%d hedge=%v: %d requests != %d served + %d shed + %d failed",
					r.Replicas, r.Hedge, r.Requests, r.Served, r.Shed, r.FailedRequests)
			}
			total += r.Requests
		}
		s.soakReqPerS = float64(total) / time.Since(t0).Seconds()
		return nil
	}); err != nil {
		return err
	}

	return seg("sched.evaluate", evaluateSchedulers)
}

// evaluateSchedulers compiles AlexNet on TX1 and runs all six schedulers
// for each of the three evaluation tasks (Figs 13–15).
func evaluateSchedulers() error {
	for _, task := range pcnn.EvaluationTasks() {
		fw, err := pcnn.New("AlexNet", pcnn.PlatformByName("TX1"), task)
		if err != nil {
			return err
		}
		if err := fw.CompileOffline(); err != nil {
			return err
		}
		if _, err := fw.Evaluate(); err != nil {
			return err
		}
	}
	return nil
}

func (s *simRegen) layers(tr *tracer, _ *windowStats, m map[string]float64) error {
	spans := tr.recorded()
	for _, name := range []string{"scenario.matrix", "fleet.soak", "sched.evaluate"} {
		m[name+".ms"] = median(durations(spans, name)) / 1e6
	}
	m["fleet.soak.sim_req_per_s"] = s.soakReqPerS

	// The 36 cells every figure is built from: 3 nets × 4 platforms × 3 tasks.
	var plans []*compile.Plan
	compile36 := func() error {
		plans = plans[:0]
		for _, net := range pcnn.Networks() {
			for _, dev := range pcnn.Platforms() {
				for _, task := range pcnn.EvaluationTasks() {
					p, err := pcnn.Compile(net, dev, task)
					if err != nil {
						return err
					}
					plans = append(plans, p)
				}
			}
		}
		return nil
	}
	ns, err := s.c.probe(compile36)
	if err != nil {
		return err
	}
	m["compile.compile36.ms"] = ns / 1e6
	launches := 0
	ns, err = s.c.probe(func() error {
		launches = 0
		for _, p := range plans {
			res, _, err := p.Simulate(true)
			if err != nil {
				return err
			}
			launches += len(res)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["gpu.simulate36.ms"] = ns / 1e6
	m["gpu.simulate36.launches"] = float64(launches)

	arr := arrivals.BurstyArrivals(100, s.c.seed)
	m["workload.arrivals.next.ns"] = s.c.probeNS(func() { arr.Next() })
	return nil
}

func (s *simRegen) close() error { return nil }
