package fleet

import (
	"context"
	"fmt"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/simdrive"
	"pcnn/internal/workload"
)

// SoakSchema versions BENCH_fleet.json; bump on any layout change. v2:
// streamed aggregation (log-bucketed percentiles, peak_pending) replacing
// v1's retained per-request samples. v3: the chunk_requests and chunks
// fields are gone — requests fold straight into the row aggregate.
const SoakSchema = "pcnn-bench-fleet/v3"

// soakTimeoutFor bounds one grid row's wall-clock run: a base for
// compilation and small rows plus a per-request allowance so
// million-request rows get proportionate headroom. Virtual-time serving
// resolves in microseconds per batch, so hitting it means a deadlock.
func soakTimeoutFor(requests int) time.Duration {
	return 5*time.Minute + time.Duration(requests)*500*time.Microsecond
}

// soakModel is one model in the soak's fixed mixed-archetype deployment
// set: the Section V.C pairing of networks to application archetypes.
type soakModel struct {
	name string
	task satisfaction.Task
}

// soakModels returns the fleet's serving mix: AlexNet frames a 30 FPS
// surveillance camera (real-time), VGGNet answers age-detection selfies
// (interactive), GoogLeNet chews the photo-tagging backlog (background).
func soakModels() []soakModel {
	return []soakModel{
		{name: "AlexNet", task: satisfaction.VideoSurveillance(30)},
		{name: "VGGNet", task: satisfaction.AgeDetection()},
		{name: "GoogLeNet", task: satisfaction.ImageTagging()},
	}
}

// SoakSpec shapes the fleet soak grid. The zero value picks the committed
// benchmark's defaults.
type SoakSpec struct {
	// Seed roots every arrival draw and retry-jitter stream.
	Seed int64 `json:"seed"`
	// RequestsPerModel arrivals are drawn per model, split evenly across
	// ClientsPerModel independent client streams. 0 means 240 / 6.
	RequestsPerModel int `json:"requests_per_model"`
	ClientsPerModel  int `json:"clients_per_model"`
	// Load is the offered fraction of the reference fleet's (ReferenceN
	// replicas) aggregate capacity — held constant across every grid row,
	// so throughput scaling with N and hedging's effect at equal load both
	// read straight off the rows. 0 means 0.4: with BurstFactor 4 that
	// keeps the multi-replica rows stable on average while bursts
	// transiently overload them, which is the regime where a hedged
	// second leg finds spare capacity and wins. (The old 1.1 default kept
	// every row saturated end-to-end, where hedging's duplicated work
	// only deepened the backlog; the single-replica row still runs past
	// saturation at 0.4 — it carries 1.2x one replica's capacity — so
	// the overload contrast survives.)
	Load float64 `json:"load"`
	// ReferenceN sizes the fleet whose capacity anchors Load. 0 means 3.
	ReferenceN int `json:"reference_n"`
	// ReplicaCounts are the fleet sizes to sweep. Empty means {1, 3, 5}.
	ReplicaCounts []int `json:"replica_counts"`
	// Platforms is the heterogeneous pool; replica i serves on
	// Platforms[i % len]. Empty means {TitanX, K20c, GTX970m, TX1}.
	Platforms []string `json:"platforms"`
	// SwapAtFrac is the fraction of arrivals after which AlexNet's v2
	// deployment (DVFS-scaled plans) hot-swaps in. 0 means 0.5; negative
	// disables the swap.
	SwapAtFrac float64 `json:"swap_at_frac"`
	// LingerMS caps each server's batch window. 0 means 20.
	LingerMS float64 `json:"linger_ms"`
	// QueueCap bounds each server's admission queue. 0 means 512.
	QueueCap int `json:"queue_cap"`
	// BurstFactor > 1 shapes every client stream as a two-state MMPP:
	// a burst regime at BurstFactor × the stream's mean rate and a calm
	// regime whose rate is chosen so the long-run mean stays the offered
	// rate. Bursts are what make hedging observable: under a flat offered
	// load a pressured replica sits at its escalation ceiling, where the
	// routing prediction equals the admission price and an admitted
	// request never predicts a miss — so the hedge twin rows were
	// byte-identical. A burst landing on a replica that recovered during
	// the preceding calm catches it below the ceiling: the request is
	// admitted (the ceiling still fits) while the current level predicts
	// a miss, and the fleet hedges it. 0 means the committed default
	// (4); any value in (0, 1] keeps the flat per-archetype processes.
	BurstFactor float64 `json:"burst_factor"`
	// BurstDutyFrac is the long-run fraction of time spent in the burst
	// regime. 0 means 0.2. BurstFactor must stay ≤ 1/BurstDutyFrac or
	// the calm rate clamps at silent and the realized mean drops below
	// the offered load.
	BurstDutyFrac float64 `json:"burst_duty_frac,omitempty"`
	// RejectUnmeetable turns slack-aware early rejection on in every
	// replica. The committed soak leaves it off: admission pricing at the
	// escalation ceiling caps each queue below the backlog any deadline
	// policy could act on, so with it on the hedge grid arm is vacuous —
	// a primary that predicts a miss has already refused the request (the
	// PR 9 residual). With it off, overload resolves through the
	// degradation ladder, deadline misses, and — in hedge rows — hedged
	// second legs, which is the comparison the hedge/no-hedge twins
	// exist to make. No committed file measures the early-rejection trade
	// itself: every row of the scenario matrix (BENCH_scenarios.json)
	// serves with rejection on — scenario.Spec.DisableReject is the
	// control no row sets.
	RejectUnmeetable bool `json:"reject_unmeetable"`
}

func (s SoakSpec) withDefaults() SoakSpec {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.RequestsPerModel <= 0 {
		s.RequestsPerModel = 240
	}
	if s.ClientsPerModel <= 0 {
		s.ClientsPerModel = 6
	}
	if s.Load <= 0 {
		s.Load = 0.4
	}
	if s.ReferenceN <= 0 {
		s.ReferenceN = 3
	}
	if len(s.ReplicaCounts) == 0 {
		s.ReplicaCounts = []int{1, 3, 5}
	}
	if len(s.Platforms) == 0 {
		s.Platforms = []string{"TitanX", "K20c", "GTX970m", "TX1"}
	}
	if s.SwapAtFrac == 0 {
		s.SwapAtFrac = 0.5
	}
	if s.LingerMS <= 0 {
		s.LingerMS = 20
	}
	if s.QueueCap <= 0 {
		s.QueueCap = 512
	}
	if s.BurstFactor == 0 {
		s.BurstFactor = 4
	}
	if s.BurstDutyFrac <= 0 || s.BurstDutyFrac >= 1 {
		s.BurstDutyFrac = 0.2
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

// RunSoak executes the full grid — every replica count with hedging off
// and on, same offered trace — and assembles the report. Everything runs
// on a virtual clock: the report is byte-reproducible.
func RunSoak(spec SoakSpec) (SoakReport, error) {
	spec = spec.withDefaults()
	models := soakModels()

	// Compile one executor set per model (plus AlexNet's DVFS-scaled v2)
	// across the whole platform pool; the maps are shared by every grid
	// row, each of which registers fresh Deployments over them.
	exV1 := make([]map[string]serve.Executor, len(models))
	for i, m := range models {
		ex, err := compileExecutors(m.name, m.task, spec.Platforms, false)
		if err != nil {
			return SoakReport{}, err
		}
		exV1[i] = ex
	}
	exV2, err := compileExecutors(models[0].name, models[0].task, spec.Platforms, true)
	if err != nil {
		return SoakReport{}, err
	}

	// Offered load: Load × the reference fleet's aggregate capacity per
	// model, constant across rows.
	offered := make([]float64, len(models))
	for i, m := range models {
		cap := 0.0
		for r := 0; r < spec.ReferenceN; r++ {
			ex := exV1[i][spec.Platforms[r%len(spec.Platforms)]]
			cap += serve.CapacityRPS(ex, m.task, ex.MaxBatch())
		}
		offered[i] = spec.Load * cap
	}

	report := SoakReport{Schema: SoakSchema, Spec: spec}
	for _, n := range spec.ReplicaCounts {
		for _, hedge := range []bool{false, true} {
			row, err := runSoakRow(spec, models, exV1, exV2, offered, n, hedge)
			if err != nil {
				return SoakReport{}, fmt.Errorf("fleet soak n=%d hedge=%v: %w", n, hedge, err)
			}
			report.Rows = append(report.Rows, row)
		}
	}
	return report, nil
}

// soakArrivals builds one client stream's arrival process at mean rate
// per: the archetype's flat process when bursting is off, otherwise a
// two-state MMPP whose calm rate is solved so the dwell-weighted mean
// stays per (clamped silent when BurstFactor exceeds 1/BurstDutyFrac).
// The burst dwell is a fixed 400ms — a handful of batch windows, long
// enough to back a recovered replica's queue up past its deadline but
// short enough that the row sees many independent bursts.
func soakArrivals(spec SoakSpec, task satisfaction.Task, per float64, seed int64) workload.Arrivals {
	if spec.BurstFactor <= 1 {
		return workload.ArrivalsForTask(task, per, seed)
	}
	p := spec.BurstDutyFrac
	calm := per * (1 - p*spec.BurstFactor) / (1 - p)
	if calm < 0 {
		calm = 0
	}
	const burstDwell = 400 * time.Millisecond
	return workload.NewMMPPArrivals([]workload.MMPPState{
		{RateRPS: spec.BurstFactor * per, MeanDwell: burstDwell},
		{RateRPS: calm, MeanDwell: time.Duration(float64(burstDwell) * (1 - p) / p)},
	}, seed)
}

// soakStreams builds one row's freshly seeded arrival processes: stream
// s is client (s % ClientsPerModel) of model (s / ClientsPerModel).
// Every row draws the identical trace because the seeds are fixed; the
// processes are consumed lazily by ScheduleStream so the trace is never
// materialized.
func soakStreams(spec SoakSpec, models []soakModel, offered []float64) ([]workload.Arrivals, []int) {
	var arrs []workload.Arrivals
	var counts []int
	for i, m := range models {
		per := offered[i] / float64(spec.ClientsPerModel)
		base := spec.RequestsPerModel / spec.ClientsPerModel
		rem := spec.RequestsPerModel % spec.ClientsPerModel
		for c := 0; c < spec.ClientsPerModel; c++ {
			s := i*spec.ClientsPerModel + c
			arrs = append(arrs, soakArrivals(spec, m.task, per, spec.Seed+int64(s+1)*7919))
			n := base
			if c < rem {
				n++
			}
			counts = append(counts, n)
		}
	}
	return arrs, counts
}

// srvSoak is the driver's view of one serve.Server: the server and its
// batch window, which owns the single worker's busy horizon.
type srvSoak struct {
	srv *serve.Server
	win *simdrive.Window
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
func runSoakRow(spec SoakSpec, models []soakModel, exV1 []map[string]serve.Executor,
	exV2 map[string]serve.Executor, offered []float64,
	n int, hedge bool) (SoakRow, error) {

	ctx, cancel := context.WithTimeout(context.Background(),
		soakTimeoutFor(spec.RequestsPerModel*len(models)))
	defer cancel()

	clk := workload.NewVirtualClock(workload.Epoch())
	reg := NewRegistry()
	for i, m := range models {
		d, err := NewDeployment(m.name, m.task, exV1[i])
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
		platform := spec.Platforms[i%len(spec.Platforms)]
		id := fmt.Sprintf("r%d-%s", i, platform)
		node := NewNode(id, platform, reg, NodeConfig{Serve: serve.Config{
			Workers:          1,
			QueueCap:         spec.QueueCap,
			LingerMS:         spec.LingerMS,
			ManualFlush:      true,
			Clock:            clk.Now,
			Seed:             spec.Seed + int64(i+1),
			RejectUnmeetable: spec.RejectUnmeetable,
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

	states := map[*serve.Server]*srvSoak{}
	var order []*srvSoak

	// Streamed aggregation state: every resolved request folds straight
	// into the fixed-size row aggregate. owners maps each in-flight leg to
	// its request; its size — bounded by queue caps × replicas, not the
	// trace — is the flat-memory invariant PeakPending records.
	rowAgg := newSoakAgg(len(models))
	owners := map[*Ticket]*pendingReq{}
	outstanding := 0

	resolve := func(pr *pendingReq) {
		outstanding--
		res, _, err := pr.ff.Wait(ctx)
		if err != nil {
			rowAgg.observeFailed(pr.model)
		} else {
			rowAgg.observeServed(pr.model, res.ResponseMS, res.DeadlineMet)
		}
	}

	flush := func(st *srvSoak) error {
		outs, err := st.win.Flush(ctx)
		if err != nil {
			return err
		}
		// Requests whose last leg just flushed resolve now and fold into
		// the row aggregate.
		for _, o := range outs {
			leg := o.Leg.(*Ticket)
			pr := owners[leg]
			if pr == nil {
				continue
			}
			delete(owners, leg)
			pr.legs--
			if pr.legs == 0 {
				resolve(pr)
			}
		}
		return nil
	}

	swapIdx := -1
	if spec.SwapAtFrac >= 0 {
		swapIdx = int(spec.SwapAtFrac * float64(total))
	}
	swapped := false
	i := 0
	var lastAt time.Duration
	next, hasNext := sched.Next()
	for {
		// The open window closing first is the next flush; an arrival at or
		// before that instant comes first.
		var due *srvSoak
		for _, st := range order {
			if st.win.Open() && (due == nil || st.win.CloseAt().Before(due.win.CloseAt())) {
				due = st
			}
		}
		if !hasNext && due == nil {
			break
		}
		if hasNext {
			t := workload.Epoch().Add(next.At)
			if due == nil || !t.After(due.win.CloseAt()) {
				if !swapped && swapIdx >= 0 && i >= swapIdx {
					// Hot-swap AlexNet's v2 (DVFS-scaled) deployment in
					// mid-trace; v1 servers retire copy-on-write as each
					// node next touches the model.
					swapped = true
					d2, err := NewDeployment(models[0].name, models[0].task, exV2)
					if err != nil {
						return SoakRow{}, err
					}
					if _, err := fl.Swap(d2); err != nil {
						return SoakRow{}, err
					}
				}
				clk.Set(t)
				mIdx := next.Stream / spec.ClientsPerModel
				client := fmt.Sprintf("client-%d", next.Stream%spec.ClientsPerModel)
				lastAt = next.At
				i++
				next, hasNext = sched.Next()
				ff, err := fl.Submit(models[mIdx].name, client)
				if err != nil {
					row.Shed++
					continue
				}
				pr := &pendingReq{ff: ff, model: mIdx, legs: len(ff.Legs())}
				outstanding++
				if outstanding > row.PeakPending {
					row.PeakPending = outstanding
				}
				for _, leg := range ff.Legs() {
					owners[leg] = pr
				}
				for _, leg := range ff.Legs() {
					srv := leg.Server()
					st := states[srv]
					if st == nil {
						// Windows fill at the plan's compiled batch (the
						// server's own cap is the wider deadline-aware one)
						// and count accepted legs only.
						platform := nodes[leg.Replica()].Platform()
						ex := exV1[mIdx][platform]
						if leg.Version() >= 2 { // only models[0] is ever hot-swapped
							ex = exV2[platform]
						}
						st = &srvSoak{srv: srv, win: simdrive.NewWindow(srv, ex, clk, ex.MaxBatch(), spec.LingerMS)}
						states[srv] = st
						order = append(order, st)
					}
					// A filled window flushes immediately, like the autonomous
					// batcher's batch-full trigger; deferring could let a
					// same-timestamp arrival overfill the window into a
					// chunked flush.
					if st.win.Add(t, leg) {
						if err := flush(st); err != nil {
							return SoakRow{}, err
						}
					}
				}
				continue
			}
		}
		if err := flush(due); err != nil {
			return SoakRow{}, err
		}
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

	// Fleet-wide serve totals over every server that took traffic.
	makespan := workload.Epoch().Add(lastAt)
	for _, st := range order {
		snap := st.srv.Stats()
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
		if st.win.BusyUntil().After(makespan) {
			makespan = st.win.BusyUntil()
		}
	}
	row.MakespanMS = float64(makespan.Sub(workload.Epoch())) / float64(time.Millisecond)
	if row.MakespanMS > 0 {
		row.ThroughputRPS = float64(row.Served) / (row.MakespanMS / 1000)
	}
	if row.Served > 0 {
		row.MissRate = float64(rowAgg.missed) / float64(row.Served)
	}
	row.P50MS, row.P95MS, row.P99MS = rowAgg.hist.percentiles()

	fsnap := fl.Snapshot()
	row.Fallbacks = fsnap.Fallbacks
	row.Hedges = fsnap.Hedges
	row.HedgeWins = fsnap.HedgeWins
	row.Ejections = fsnap.Ejections
	row.Readmissions = fsnap.Readmissions
	row.Swaps = fsnap.Swaps

	for m := range models {
		ma := &rowAgg.perModel[m]
		p50, _, p99 := ma.hist.percentiles()
		mr := SoakModelRow{
			Model:    models[m].name,
			Requests: ma.requests,
			Served:   ma.served,
			P50MS:    p50,
			P99MS:    p99,
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
