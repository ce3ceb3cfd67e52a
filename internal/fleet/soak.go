package fleet

import (
	"context"
	"fmt"
	"time"

	"pcnn/internal/nn"
	"pcnn/internal/par"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/simdrive"
	"pcnn/internal/workload"
)

// SoakSchema versions BENCH_fleet.json; bump on any layout change. v2:
// streamed aggregation (log-bucketed percentiles, peak_pending) replacing
// v1's retained per-request samples. v3: the chunk_requests and chunks
// fields are gone — requests fold straight into the row aggregate. v4:
// the spec header keeps only the three knobs a caller sets; the rest of
// the soak's shape is the soak* constants.
const SoakSchema = "pcnn-bench-fleet/v4"

// soakTimeoutFor bounds one grid row's wall-clock run: a base for
// compilation and small rows plus a per-request allowance so
// million-request rows get proportionate headroom. Virtual-time serving
// resolves in microseconds per batch, so hitting it means a deadlock.
func soakTimeoutFor(requests int) time.Duration {
	return 5*time.Minute + time.Duration(requests)*500*time.Microsecond
}

// The soak's fixed shape.
const (
	// soakLoad is the offered fraction of the reference fleet's
	// (soakReferenceN replicas) aggregate capacity, the same offered trace
	// in every grid row. With the 4x bursts it keeps the multi-replica rows
	// stable on average while bursts transiently overload them: the regime
	// where a hedged second leg finds spare capacity and wins. The
	// single-replica row carries 1.2x one replica's capacity.
	soakLoad       = 0.4
	soakReferenceN = 3
	// soakClientsPerModel client streams split each model's requests.
	soakClientsPerModel = 6
	// soakQueueCap bounds each server's admission queue.
	soakQueueCap = 512
	// soakSwapAtFrac is the fraction of arrivals after which AlexNet's v2
	// deployment (DVFS-scaled plans) hot-swaps in.
	soakSwapAtFrac = 0.5
	// Every client stream is a two-state MMPP: a burst regime at
	// soakBurstFactor × the stream's mean rate for soakBurstDutyFrac of
	// the time, and a calm regime whose rate keeps the long-run mean at
	// the offered rate (soakBurstFactor ≤ 1/soakBurstDutyFrac keeps it
	// non-negative). Bursts are what make hedging observable: under a
	// flat offered load a pressured replica sits at its escalation
	// ceiling, where the routing prediction equals the admission price
	// and an admitted request never predicts a miss, so the hedge twin
	// rows were byte-identical. A burst landing on a replica that
	// recovered during the preceding calm catches it below the ceiling:
	// the request is admitted (the ceiling still fits) while the current
	// level predicts a miss, and the fleet hedges it.
	soakBurstFactor   = 4
	soakBurstDutyFrac = 0.2
)

// MixedPlatforms is the mixed fleet's heterogeneous platform pool — the
// soak's and pcnnd -fleet's default; replica i serves on
// MixedPlatforms[i % len].
var MixedPlatforms = []string{"TitanX", "K20c", "GTX970m", "TX1"}

// MixedModel is one model of the mixed fleet's fixed mixed-archetype
// deployment set: the Section V.C pairing of networks to application
// archetypes.
type MixedModel struct {
	Name string
	Task satisfaction.Task
}

// MixedModels returns the mixed fleet's serving mix, the one the soak
// drives and pcnnd -fleet serves: AlexNet frames a 30 FPS surveillance
// camera (real-time), VGGNet answers age-detection selfies (interactive),
// GoogLeNet chews the photo-tagging backlog (background).
func MixedModels() []MixedModel {
	return []MixedModel{
		{Name: "AlexNet", Task: satisfaction.VideoSurveillance(30)},
		{Name: "VGGNet", Task: satisfaction.AgeDetection()},
		{Name: "GoogLeNet", Task: satisfaction.ImageTagging()},
	}
}

// SoakSpec sizes the fleet soak grid, whose shape is otherwise fixed. The
// zero value is the committed benchmark's grid.
type SoakSpec struct {
	// Seed roots every arrival draw and retry-jitter stream; 0 means 42.
	Seed int64 `json:"seed"`
	// RequestsPerModel arrivals are drawn per model, split evenly across
	// the client streams; 0 means 240.
	RequestsPerModel int `json:"requests_per_model"`
	// ReplicaCounts are the fleet sizes to sweep; empty means {1, 3, 5}.
	ReplicaCounts []int `json:"replica_counts"`
}

func (s SoakSpec) withDefaults() SoakSpec {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.RequestsPerModel <= 0 {
		s.RequestsPerModel = 240
	}
	if len(s.ReplicaCounts) == 0 {
		s.ReplicaCounts = []int{1, 3, 5}
	}
	return s
}

// SoakModelRow is one model's slice of a grid row.
type SoakModelRow struct {
	Model    string  `json:"model"`
	Requests int     `json:"requests"`
	Served   int     `json:"served"`
	MissRate float64 `json:"miss_rate"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// SoakRow is one (replica count, hedging) grid cell.
type SoakRow struct {
	Replicas  int      `json:"replicas"`
	Platforms []string `json:"platforms"`
	Hedge     bool     `json:"hedge"`

	OfferedRPS    float64 `json:"offered_rps"`
	MakespanMS    float64 `json:"makespan_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Requests = Served + Shed + FailedRequests: every arrival is answered,
	// refused by all replicas, or lost to failed legs.
	Requests       int `json:"requests"`
	Served         int `json:"served"`
	Shed           int `json:"shed"`
	FailedRequests int `json:"failed_requests"`

	// Fleet-wide serve counters summed over every server (retired ones
	// included); Submitted == Completed + Failed after the drain.
	Submitted          uint64 `json:"submitted"`
	Completed          uint64 `json:"completed"`
	Failed             uint64 `json:"failed"`
	Rejected           uint64 `json:"rejected"`
	RejectedUnmeetable uint64 `json:"rejected_unmeetable"`
	RejectedQueueFull  uint64 `json:"rejected_queue_full"`

	Fallbacks    uint64 `json:"fallbacks"`
	Hedges       uint64 `json:"hedges"`
	HedgeWins    uint64 `json:"hedge_wins"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`

	Swaps       uint64 `json:"swaps"`
	SwapDrained int    `json:"swap_drained"`
	// SwapFailed counts failed requests on swap-retired servers — the
	// zero-downtime hot-swap guarantee is SwapFailed == 0.
	SwapFailed uint64 `json:"swap_failed"`

	MissRate float64 `json:"miss_rate"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`

	// PeakPending is the most unresolved routed requests the driver held
	// at once — the flat-memory evidence (bounded by queue caps, not by
	// the trace length).
	PeakPending int `json:"peak_pending"`

	Models []SoakModelRow `json:"models"`
}

// SoakReport is the committed BENCH_fleet.json document.
type SoakReport struct {
	Schema string    `json:"schema"`
	Spec   SoakSpec  `json:"spec"`
	Rows   []SoakRow `json:"rows"`
}

// Check holds every row to the soak's acceptance bar: each arrival is
// served, shed or failed; every server's books balance; exactly one
// hot-swap happened and no failure is attributable to it; and with
// hedging off, median latency falls as the replica count rises. (Not
// throughput: every model draws the same request count, so the slowest
// stream's last arrival sets each row's makespan and throughput barely
// moves with N.)
func (r SoakReport) Check() error {
	for _, row := range r.Rows {
		switch {
		case row.Requests != row.Served+row.Shed+row.FailedRequests:
			return fmt.Errorf("n=%d hedge=%v loses requests: %d != %d served + %d shed + %d failed",
				row.Replicas, row.Hedge, row.Requests, row.Served, row.Shed, row.FailedRequests)
		case row.Submitted != row.Completed+row.Failed:
			return fmt.Errorf("n=%d hedge=%v: %d submitted != %d completed + %d failed",
				row.Replicas, row.Hedge, row.Submitted, row.Completed, row.Failed)
		case row.Swaps != 1 || row.SwapFailed != 0:
			return fmt.Errorf("n=%d hedge=%v: swap not clean: %d swaps, %d failed on retired servers",
				row.Replicas, row.Hedge, row.Swaps, row.SwapFailed)
		}
		for _, prev := range r.Rows {
			if !row.Hedge && !prev.Hedge && prev.Replicas < row.Replicas && row.P50MS >= prev.P50MS {
				return fmt.Errorf("latency did not fall with replicas: n=%d p50 %.1f ms after n=%d p50 %.1f ms",
					row.Replicas, row.P50MS, prev.Replicas, prev.P50MS)
			}
		}
	}
	return nil
}

// RunSoak executes the full grid — every replica count with hedging off
// and on, same offered trace — and assembles the report, rows in grid
// order. Everything runs on a virtual clock: the report is
// byte-reproducible. The executor compiles and then the grid rows are
// independent units that fan out with par.Each (at most GOMAXPROCS at
// once); rows share only the executors, whose answers do not depend on
// which row asks first, so the report equals a serial run's byte for
// byte.
func RunSoak(spec SoakSpec) (SoakReport, error) {
	spec = spec.withDefaults()
	models := MixedModels()

	// Compile one executor set per model (plus AlexNet's DVFS-scaled v2)
	// across the whole platform pool, one unit per (set, platform); the
	// maps are shared by every grid row, each of which registers fresh
	// Deployments over them.
	nets := make([]*nn.NetShape, len(models))
	for i, m := range models {
		nets[i] = nn.NetShapeByName(m.Name)
	}
	nP := len(MixedPlatforms)
	exs := make([]serve.Executor, (len(models)+1)*nP)
	err := par.Each(len(exs), func(u int) error {
		set, platform := u/nP, MixedPlatforms[u%nP]
		i, dvfs := 0, true // the last set is AlexNet's v2
		if set < len(models) {
			i, dvfs = set, false
		}
		var err error
		exs[u], err = compileExecutor(nets[i], models[i].Task, platform, dvfs)
		return err
	})
	if err != nil {
		return SoakReport{}, err
	}
	execSet := func(set int) map[string]serve.Executor {
		ex := make(map[string]serve.Executor, nP)
		for i, p := range MixedPlatforms {
			ex[p] = exs[set*nP+i]
		}
		return ex
	}
	exV1 := make([]map[string]serve.Executor, len(models))
	for i := range models {
		exV1[i] = execSet(i)
	}
	exV2 := execSet(len(models))

	// Offered load: soakLoad × the reference fleet's aggregate capacity
	// per model, constant across rows.
	offered := make([]float64, len(models))
	for i, m := range models {
		cap := 0.0
		for r := 0; r < soakReferenceN; r++ {
			ex := exV1[i][MixedPlatforms[r%nP]]
			cap += serve.CapacityRPS(ex, m.Task, ex.MaxBatch())
		}
		offered[i] = soakLoad * cap
	}

	// Row 2k is ReplicaCounts[k] with hedging off, row 2k+1 with it on.
	rows := make([]SoakRow, 2*len(spec.ReplicaCounts))
	err = par.Each(len(rows), func(i int) error {
		n, hedge := spec.ReplicaCounts[i/2], i%2 == 1
		var err error
		rows[i], err = runSoakRow(spec, models, exV1, exV2, offered, n, hedge)
		if err != nil {
			return fmt.Errorf("fleet soak n=%d hedge=%v: %w", n, hedge, err)
		}
		return nil
	})
	if err != nil {
		return SoakReport{}, err
	}
	return SoakReport{Schema: SoakSchema, Spec: spec, Rows: rows}, nil
}

// soakArrivals builds one client stream's two-state MMPP at mean rate
// per, its calm rate solved so the dwell-weighted mean stays per. The
// burst dwell is a fixed 400ms — a handful of batch windows, long enough
// to back a recovered replica's queue up past its deadline but short
// enough that the row sees many independent bursts.
func soakArrivals(per float64, seed int64) workload.Arrivals {
	// float64 variables, not constant expressions: the rates round at
	// float64 precision, as the committed file was generated.
	burst, p := float64(soakBurstFactor), float64(soakBurstDutyFrac)
	const burstDwell = 400 * time.Millisecond
	return workload.NewMMPPArrivals([]workload.MMPPState{
		{RateRPS: burst * per, MeanDwell: burstDwell},
		{RateRPS: per * (1 - p*burst) / (1 - p), MeanDwell: time.Duration(float64(burstDwell) * (1 - p) / p)},
	}, seed)
}

// soakStreams builds one row's freshly seeded arrival processes: stream
// s is client (s % soakClientsPerModel) of model (s / soakClientsPerModel).
// Every row draws the identical trace because the seeds are fixed; the
// processes are consumed lazily by ScheduleStream so the trace is never
// materialized.
func soakStreams(spec SoakSpec, models []MixedModel, offered []float64) ([]workload.Arrivals, []int) {
	var arrs []workload.Arrivals
	var counts []int
	for i := range models {
		per := offered[i] / soakClientsPerModel
		base := spec.RequestsPerModel / soakClientsPerModel
		rem := spec.RequestsPerModel % soakClientsPerModel
		for c := 0; c < soakClientsPerModel; c++ {
			s := i*soakClientsPerModel + c
			arrs = append(arrs, soakArrivals(per, spec.Seed+int64(s+1)*7919))
			n := base
			if c < rem {
				n++
			}
			counts = append(counts, n)
		}
	}
	return arrs, counts
}

// pendingReq tracks one routed arrival until its last leg's batch
// flushes — then it resolves immediately and folds into the row
// aggregate, so the driver never retains resolved requests.
type pendingReq struct {
	ff    *FleetFuture
	model int
	legs  int // legs not yet flushed
}

// runSoakRow serves the shared schedule on one fleet configuration.
func runSoakRow(spec SoakSpec, models []MixedModel, exV1 []map[string]serve.Executor,
	exV2 map[string]serve.Executor, offered []float64,
	n int, hedge bool) (SoakRow, error) {

	ctx, cancel := context.WithTimeout(context.Background(),
		soakTimeoutFor(spec.RequestsPerModel*len(models)))
	defer cancel()

	clk := workload.NewVirtualClock(workload.Epoch())
	reg := NewRegistry()
	for i, m := range models {
		d, err := NewDeployment(m.Name, m.Task, exV1[i])
		if err != nil {
			return SoakRow{}, err
		}
		if err := reg.Register(d); err != nil {
			return SoakRow{}, err
		}
	}
	fl := New(reg, Config{Hedge: hedge, Clock: clk.Now})

	row := SoakRow{Replicas: n, Hedge: hedge}
	nodes := map[string]*Node{}
	var nodeIDs []string
	for i := 0; i < n; i++ {
		platform := MixedPlatforms[i%len(MixedPlatforms)]
		id := fmt.Sprintf("r%d-%s", i, platform)
		// Slack-aware early rejection stays off: admission pricing at the
		// escalation ceiling caps each queue below the backlog a deadline
		// policy could act on, so with it on a primary that predicts a miss
		// has already refused the request and the hedge arm is vacuous.
		// Overload resolves through the degradation ladder, deadline misses
		// and, in hedge rows, hedged second legs.
		node := NewNode(id, platform, reg, NodeConfig{Serve: serve.Config{
			Workers:     1,
			QueueCap:    soakQueueCap,
			LingerMS:    simdrive.LingerMS,
			ManualFlush: true,
			Clock:       clk.Now,
			Seed:        spec.Seed + int64(i+1),
		}})
		if err := fl.AddReplica(node); err != nil {
			return SoakRow{}, err
		}
		nodes[id] = node
		nodeIDs = append(nodeIDs, id)
		row.Platforms = append(row.Platforms, platform)
	}
	for _, o := range offered {
		row.OfferedRPS += o
	}
	sched := workload.NewScheduleStream(soakStreams(spec, models, offered))
	total := sched.Total()

	// Streamed aggregation state: every resolved request folds straight
	// into the fixed-size row aggregate. owners maps each in-flight leg to
	// its request; its size — bounded by queue caps × replicas, not the
	// trace — is the flat-memory invariant PeakPending records.
	rowAgg := newSoakAgg(len(models))
	owners := map[*Ticket]*pendingReq{}
	outstanding := 0
	wins := map[*serve.Server]*simdrive.Window{}

	swapAt := int(soakSwapAtFrac * float64(total))
	arrived := 0
	var lastAt time.Duration
	var slots []simdrive.Slot
	arrive := func(_ time.Time, ev workload.Event) ([]simdrive.Slot, error) {
		if arrived == swapAt {
			// Hot-swap AlexNet's v2 (DVFS-scaled) deployment in mid-trace;
			// v1 servers retire copy-on-write as each node next touches
			// the model.
			d2, err := NewDeployment(models[0].Name, models[0].Task, exV2)
			if err != nil {
				return nil, err
			}
			if _, err := fl.Swap(d2); err != nil {
				return nil, err
			}
		}
		arrived++
		lastAt = ev.At
		mIdx := ev.Stream / soakClientsPerModel
		ff, err := fl.Submit(models[mIdx].Name, fmt.Sprintf("client-%d", ev.Stream%soakClientsPerModel))
		if err != nil {
			row.Shed++
			return nil, nil
		}
		outstanding++
		row.PeakPending = max(row.PeakPending, outstanding)
		pr := &pendingReq{ff: ff, model: mIdx, legs: len(ff.Legs())}
		slots = slots[:0]
		for _, leg := range ff.Legs() {
			owners[leg] = pr
			win := wins[leg.Server()]
			if win == nil {
				// Windows fill at the plan's compiled batch (the server's
				// own cap is the wider deadline-aware one) and count
				// accepted legs only.
				platform := nodes[leg.Replica()].Platform()
				ex := exV1[mIdx][platform]
				if leg.Version() >= 2 { // only models[0] is ever hot-swapped
					ex = exV2[platform]
				}
				win = simdrive.NewWindow(leg.Server(), ex, clk, ex.MaxBatch())
				wins[leg.Server()] = win
			}
			slots = append(slots, simdrive.Slot{Win: win, Leg: leg})
		}
		return slots, nil
	}
	// A request resolves when its last leg's batch flushes.
	flushed := func(outs []simdrive.Outcome) {
		for _, o := range outs {
			leg := o.Leg.(*Ticket)
			pr := owners[leg]
			delete(owners, leg)
			if pr.legs--; pr.legs > 0 {
				continue
			}
			outstanding--
			if res, _, err := pr.ff.Wait(ctx); err != nil {
				rowAgg.observeFailed(pr.model)
			} else {
				rowAgg.observeServed(pr.model, res.ResponseMS, res.DeadlineMet)
			}
		}
	}
	if err := simdrive.Drive(ctx, clk, sched, arrive, flushed); err != nil {
		return SoakRow{}, err
	}

	// Drain swap-retired servers: every window already flushed, so Close
	// only reaps the pipeline. Failures here would be swap-attributable.
	for _, id := range nodeIDs {
		for _, srv := range nodes[id].TakeRetired() {
			row.SwapDrained++
			if err := srv.Close(ctx); err != nil {
				return SoakRow{}, err
			}
			row.SwapFailed += srv.Stats().Failed
		}
	}

	// Every window flushed, so every routed request has resolved into the
	// row aggregate.
	if len(owners) != 0 || outstanding != 0 {
		return SoakRow{}, fmt.Errorf("driver leaked %d legs / %d requests unresolved",
			len(owners), outstanding)
	}
	row.Requests = total
	row.Served = rowAgg.served
	row.FailedRequests = rowAgg.failed

	// Fleet-wide serve totals over every server that took traffic: sums
	// and a maximum, so the map's order does not matter.
	makespan := workload.Epoch().Add(lastAt)
	for srv, win := range wins {
		snap := srv.Stats()
		row.Submitted += snap.Submitted
		row.Completed += snap.Completed
		row.Failed += snap.Failed
		row.Rejected += snap.Rejected
		row.RejectedUnmeetable += snap.RejectedUnmeetable
		row.RejectedQueueFull += snap.RejectedQueueFull
		if snap.QueueDepth != 0 {
			return SoakRow{}, fmt.Errorf("server drained with queue depth %d", snap.QueueDepth)
		}
		if snap.Submitted != snap.Completed+snap.Failed {
			return SoakRow{}, fmt.Errorf("conservation violated: %d submitted != %d completed + %d failed",
				snap.Submitted, snap.Completed, snap.Failed)
		}
		if win.BusyUntil().After(makespan) {
			makespan = win.BusyUntil()
		}
	}
	row.MakespanMS = float64(makespan.Sub(workload.Epoch())) / float64(time.Millisecond)
	if row.MakespanMS > 0 {
		row.ThroughputRPS = float64(row.Served) / (row.MakespanMS / 1000)
	}
	if row.Served > 0 {
		row.MissRate = float64(rowAgg.missed) / float64(row.Served)
	}
	row.P50MS = rowAgg.hist.Percentile(0.50)
	row.P95MS = rowAgg.hist.Percentile(0.95)
	row.P99MS = rowAgg.hist.Percentile(0.99)

	fsnap := fl.Snapshot()
	row.Fallbacks = fsnap.Fallbacks
	row.Hedges = fsnap.Hedges
	row.HedgeWins = fsnap.HedgeWins
	row.Ejections = fsnap.Ejections
	row.Readmissions = fsnap.Readmissions
	row.Swaps = fsnap.Swaps

	for m := range models {
		ma := &rowAgg.perModel[m]
		mr := SoakModelRow{
			Model:    models[m].Name,
			Requests: ma.requests,
			Served:   ma.served,
			P50MS:    ma.hist.Percentile(0.50),
			P99MS:    ma.hist.Percentile(0.99),
		}
		if mr.Served > 0 {
			mr.MissRate = float64(ma.missed) / float64(mr.Served)
		}
		row.Models = append(row.Models, mr)
	}

	if err := fl.Close(ctx); err != nil {
		return SoakRow{}, err
	}
	return row, nil
}
