package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"pcnn/internal/fault"
	"pcnn/internal/obs"
)

// MatrixSchema versions the BENCH_scenarios.json row layout.
const MatrixSchema = "pcnn.scenarios/v1"

// StreamRow is one stream's deterministic outcome inside a scenario. All
// fields derive from virtual-clock quantities; nothing wall-clock-
// dependent (throughput over wall time, breaker state) is exported here.
type StreamRow struct {
	Task    string  `json:"task"`
	Class   string  `json:"class"`
	Arrival string  `json:"arrival"`
	RateRPS float64 `json:"rate_rps"`

	FreqFrac   float64 `json:"freq_frac"`
	CoRunTimeX float64 `json:"corun_time_x"`

	Requests  int    `json:"requests"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`
	Batches   uint64 `json:"batches"`

	MeanBatch       float64 `json:"mean_batch"`
	P50MS           float64 `json:"p50_ms"`
	P99MS           float64 `json:"p99_ms"`
	MissRate        float64 `json:"deadline_miss_rate"`
	MeanSoC         float64 `json:"mean_soc"`
	MeanEntropy     float64 `json:"mean_entropy"`
	EnergyPerImageJ float64 `json:"energy_per_image_j"`

	Escalations  uint64 `json:"escalations"`
	Calibrations uint64 `json:"calibrations"`
	Recoveries   uint64 `json:"recoveries"`
	Retries      uint64 `json:"retries"`
	FinalLevel   int    `json:"final_level"`

	Faults fault.Counts `json:"faults"`
}

// Row is one scenario's outcome: the cross-stream aggregate plus every
// per-stream row. Field order is the JSON order; keep it stable — the
// golden exposition test pins it.
type Row struct {
	Name     string `json:"name"`
	Platform string `json:"platform"`
	Net      string `json:"net"`
	DVFS     bool   `json:"dvfs"`
	CoRun    bool   `json:"corun"`
	Chaos    string `json:"chaos,omitempty"`
	Seed     int64  `json:"seed"`

	Requests  int    `json:"requests"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Rejected  uint64 `json:"rejected"`

	MeanBatch       float64 `json:"mean_batch"`
	P50MS           float64 `json:"p50_ms"`
	P99MS           float64 `json:"p99_ms"`
	MissRate        float64 `json:"deadline_miss_rate"`
	MeanSoC         float64 `json:"mean_soc"`
	EnergyPerImageJ float64 `json:"energy_per_image_j"`

	Escalations  uint64 `json:"escalations"`
	Calibrations uint64 `json:"calibrations"`

	Faults fault.Counts `json:"faults"`

	Streams []StreamRow `json:"streams"`
}

// aggregate folds the per-stream rows and the pooled latency samples
// (sorted in place) into the scenario-level fields.
func (r *Row) aggregate(lats []float64) {
	var socW, energyW, missW, batchW float64
	var batches uint64
	for _, s := range r.Streams {
		r.Requests += s.Requests
		r.Completed += s.Completed
		r.Failed += s.Failed
		r.Rejected += s.Rejected
		r.Escalations += s.Escalations
		r.Calibrations += s.Calibrations
		r.Faults.Launch += s.Faults.Launch
		r.Faults.Slow += s.Faults.Slow
		r.Faults.Corrupt += s.Faults.Corrupt
		r.Faults.Saturate += s.Faults.Saturate
		r.Faults.Skew += s.Faults.Skew
		c := float64(s.Completed)
		socW += s.MeanSoC * c
		energyW += s.EnergyPerImageJ * c
		missW += s.MissRate * c
		batchW += s.MeanBatch * float64(s.Batches)
		batches += s.Batches
	}
	if r.Completed > 0 {
		n := float64(r.Completed)
		r.MeanSoC = socW / n
		r.EnergyPerImageJ = energyW / n
		r.MissRate = missW / n
	}
	if batches > 0 {
		r.MeanBatch = batchW / float64(batches)
	}
	sort.Float64s(lats)
	r.P50MS = obs.Percentile(lats, 0.50)
	r.P99MS = obs.Percentile(lats, 0.99)
}

// Matrix is the full scenario sweep, the structure BENCH_scenarios.json
// records.
type Matrix struct {
	Schema string `json:"schema"`
	Rows   []Row  `json:"rows"`
}

// EncodeJSON writes the matrix as indented JSON. Encoding is fully
// deterministic: fixed field order, no maps, no timestamps.
func (m Matrix) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WritePrometheus renders the matrix as a Prometheus text-format
// snapshot, one labelled series per scenario per metric, deterministically
// ordered (the registry sorts families and series).
func (m Matrix) WritePrometheus(w io.Writer) error {
	reg := obs.NewRegistry()
	for _, r := range m.Rows {
		labels := []obs.Label{
			{Key: "scenario", Value: r.Name},
			{Key: "platform", Value: r.Platform},
			{Key: "net", Value: r.Net},
		}
		set := func(name, help string, v float64) {
			reg.Gauge("pcnn_scenario_"+name, help, labels...).Set(v)
		}
		set("mean_soc", "Completed-weighted mean satisfaction of the scenario.", r.MeanSoC)
		set("energy_per_image_j", "Completed-weighted mean energy per image (J).", r.EnergyPerImageJ)
		set("p50_ms", "Pooled median response latency (virtual ms).", r.P50MS)
		set("p99_ms", "Pooled 99th-percentile response latency (virtual ms).", r.P99MS)
		set("deadline_miss_rate", "Completed-weighted deadline miss rate.", r.MissRate)
		set("mean_batch", "Batch-weighted mean coalesced batch size.", r.MeanBatch)
		set("completed", "Requests served to completion.", float64(r.Completed))
		set("failed", "Requests whose batch execution failed.", float64(r.Failed))
		set("rejected", "Requests rejected at admission.", float64(r.Rejected))
		set("escalations", "Perforation-level escalations.", float64(r.Escalations))
		set("faults_total", "Injected faults across every kind.", float64(r.Faults.Total()))
	}
	return reg.WritePrometheus(w)
}

// defaultChaos is the matrix's chaos dose: every fault kind at a rate low
// enough that most requests still complete, with the skew small relative
// to deadlines.
func defaultChaos(seed int64) fault.Spec {
	return fault.Spec{
		Seed:       seed,
		Launch:     0.02,
		Slow:       0.05,
		SlowFactor: 3,
		Corrupt:    0.05,
		Saturate:   0.01,
		SkewMS:     1,
	}
}

// mixedStreams is the standard three-archetype traffic mix: interactive
// age detection and background tagging on the grid's arrival process,
// fixed-fps surveillance always periodic.
func mixedStreams(arrival string, requests int) []StreamSpec {
	return []StreamSpec{
		{Task: "age", Arrival: arrival, Load: 0.6, Requests: requests},
		{Task: "surveillance", FPS: 30, Arrival: ArrivalPeriodic, Requests: requests},
		{Task: "tagging", Arrival: arrival, Load: 0.9, Requests: requests},
	}
}

// gridSpecs builds the platforms × arrivals × chaos cross with mixed
// archetype streams on every cell.
func gridSpecs(platforms, arrivals []string, netName string, requests int, seed int64) []Spec {
	var specs []Spec
	for _, p := range platforms {
		for _, a := range arrivals {
			for _, chaos := range []bool{false, true} {
				sp := Spec{
					Name:     fmt.Sprintf("%s-%s-%s", strings.ToLower(p), strings.ToLower(netName), a),
					Platform: p,
					Net:      netName,
					Streams:  mixedStreams(a, requests),
					DVFS:     true,
					// Co-running interference rides the bursty and diurnal
					// cells, where freed-SM donation has idle capacity to use.
					CoRun: a != ArrivalPoisson,
					Seed:  seed + int64(len(specs)),
				}
				if chaos {
					sp.Name += "-chaos"
					sp.Chaos = defaultChaos(sp.Seed)
				}
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

// DefaultMatrix is the committed BENCH_scenarios.json grid: two platforms
// (embedded TX1, server TitanX) × three arrival processes × chaos on/off,
// twelve scenarios of three mixed-archetype streams each.
func DefaultMatrix(seed int64) []Spec {
	return gridSpecs(
		[]string{"TX1", "TitanX"},
		[]string{ArrivalPoisson, ArrivalMMPP, ArrivalDiurnal},
		"AlexNet", 96, seed)
}

// ServeMatrix is the committed BENCH_serve.json grid: one stream st of a
// single task on netName/platform at 0.5×, 1× and 2× one worker's
// capacity (st.Load is overwritten), one row per load in that order.
func ServeMatrix(platform, netName string, st StreamSpec, seed int64) []Spec {
	var specs []Spec
	for _, load := range []float64{0.5, 1, 2} {
		st.Load = load
		specs = append(specs, Spec{
			Name:     fmt.Sprintf("%s-%s-%s-%gx", strings.ToLower(platform), strings.ToLower(netName), st.Task, load),
			Platform: platform,
			Net:      netName,
			Streams:  []StreamSpec{st},
			Seed:     seed,
		})
	}
	return specs
}

// SmokeMatrix is the CI gate's small grid: one platform × two arrival
// processes × chaos on/off, short streams.
func SmokeMatrix(seed int64) []Spec {
	return gridSpecs(
		[]string{"TX1"},
		[]string{ArrivalPoisson, ArrivalMMPP},
		"AlexNet", 32, seed)
}
