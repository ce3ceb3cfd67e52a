// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repo root): one process runs one
// workload — set-up with a fixed-count warm-up, an untraced closed-loop
// window for the end-to-end metrics or, with --trace 1, a reference window
// plus a traced window and direct-call probes for the per-layer metrics —
// checks the program's outputs, and prints one JSON result as its last
// line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every fixed count and skips training so the whole
	// path runs in a test; its numbers mean nothing.
	smoke bool
}

// scale shrinks a fixed warm-up or probe count for smoke runs.
func (c *config) scale(n int) int {
	if c.smoke {
		return max(1, n/100)
	}
	return n
}

// workload is one closed-loop load over one op type.
type workload interface {
	// setup builds the system under test, checks whatever is checked once,
	// and runs the fixed-count warm-up; its wall time is setup_s.
	setup(c *config) error
	// window drives the loop for d. With a tracer it rebuilds the serving
	// objects over the same compiled and trained artefacts with the
	// benchmark's wrappers installed, and records spans.
	window(d time.Duration, tr *tracer) (*windowStats, error)
	// layers fills the per-layer metrics this workload owns from the
	// traced window and its direct-call probes.
	layers(tr *tracer, traced *windowStats, m map[string]float64) error
	// close releases what setup built and runs the after-window checks.
	close() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wServeForward:
		return &serveForward{}, nil
	case wFleetWire:
		return &fleetWire{}, nil
	case wConvFullshape:
		return &convFullshape{}, nil
	case wSimRegen:
		return &simRegen{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)",
		name, wServeForward, wFleetWire, wConvFullshape, wSimRegen)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss of this process (Linux reports kilobytes).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// header records where and on what a result was measured.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke,omitempty"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func newHeader(c *config) header {
	return header{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Smoke: c.smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the revision the go tool stamped into the binary; the driver's
// checkout is not a git repository, so it is often unknown.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out appends: the result plus where it came from.
type record struct {
	Header header `json:"header"`
	result
	// Samples is the sample count behind the latency percentiles.
	Samples uint64 `json:"latency_samples"`
	// LatencyMS and SliceRates are the window behind the reported
	// medians, kept so that a noisy set of runs can be taken apart.
	LatencyMS  map[string]float64 `json:"latency_ms,omitempty"`
	SliceRates []float64          `json:"slice_rates_ops_s,omitempty"`
}

// run executes one workload run end to end.
func run(c *config) (record, error) {
	rec := record{Header: newHeader(c)}
	w, err := newWorkload(c.workload)
	if err != nil {
		return rec, err
	}
	t0 := time.Now()
	if err := w.setup(c); err != nil {
		return rec, fmt.Errorf("%s setup: %w", c.workload, err)
	}
	setupS := time.Since(t0).Seconds()

	window := time.Duration(c.seconds * float64(time.Second))
	values := map[string]float64{}
	var st *windowStats // the window whose ops the result counts
	var lat *histogram  // the latencies behind the reported percentiles
	if !c.trace {
		if st, err = measure(w, window, nil); err != nil {
			return rec, fmt.Errorf("%s window: %w", c.workload, err)
		}
		sim, err := simColumn(c.seed)
		if err != nil {
			return rec, err
		}
		values["setup_s"] = setupS
		values["throughput_p90_ops_s"] = st.throughput(fastQuantile)
		values["latency_p10_ms"] = st.lat.ms(1 - fastQuantile)
		values["rss_mb"] = st.rssMB
		sim.into(values)
		lat = st.lat
	} else {
		// Half the time untraced, half traced, in one process: their
		// throughput ratio is the tracing overhead.
		ref, err := measure(w, window/2, nil)
		if err != nil {
			return rec, fmt.Errorf("%s reference window: %w", c.workload, err)
		}
		values["process.peak_rss_mb"] = peakRSSMB() // before the span buffer exists
		tr := newTracer(traceCapacity)
		if st, err = measure(w, window/2, tr); err != nil {
			return rec, fmt.Errorf("%s traced window: %w", c.workload, err)
		}
		values["process.cpu_ms_per_op"] = float64(ref.cpu) / 1e6 / float64(max(ref.ok(), 1))
		values["process.alloc_kb_per_op"] = ref.allocKB / float64(max(ref.ok(), 1))
		values["process.allocs_per_op"] = float64(ref.allocs) / float64(max(ref.ok(), 1))
		values["process.gc_pause_ms"] = ref.gcPauseMS
		values["throughput.p50_ops_s"] = ref.throughput(0.50)
		values["latency.p50_ms"] = ref.lat.ms(0.50)
		values["latency.p90_ms"] = ref.lat.ms(0.90)
		values["latency.p99_ms"] = ref.lat.ms(0.99)
		values["latency.samples"] = float64(ref.lat.n)
		values["bench.trace_overhead_frac"] = 1 - st.throughput(fastQuantile)/ref.throughput(fastQuantile)
		if err := w.layers(tr, st, values); err != nil {
			return rec, fmt.Errorf("%s layers: %w", c.workload, err)
		}
		// Count the reference window's ops too: both windows were checked.
		st.attempted += ref.attempted
		st.failed += ref.failed
		lat = ref.lat
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return rec, err
		}
		path := filepath.Join(outDir, "trace_"+c.workload+".json")
		if err := writeTrace(path, rec.Header, tr.recorded(), tr.dropped.Load()); err != nil {
			return rec, err
		}
	}
	closeErr := w.close()

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	rec.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		rec.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	rec.Attempted, rec.Failed = st.attempted, st.failed
	rec.Samples = lat.n
	rec.LatencyMS = map[string]float64{}
	for _, q := range []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90} {
		rec.LatencyMS[fmt.Sprintf("p%02.0f", q*100)] = lat.ms(q)
	}
	rec.SliceRates = st.sliceRates()
	rec.Correct = closeErr == nil && st.failed == 0 && st.attempted > 0
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %v\n", c.workload, closeErr)
	}
	return rec, nil
}

// outDir receives the span files; traceCapacity is the span buffer's size,
// enough for a ten-second fleet_wire window at three spans a request.
const (
	outDir        = "bench/out"
	traceCapacity = 1 << 19
)

// refuseGEMMEnv enforces that the program under test gets its own
// defaults: any PCNN_GEMM_* variable would silently change the engine.
func refuseGEMMEnv() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "PCNN_GEMM_") {
			name, _, _ := strings.Cut(kv, "=")
			return fmt.Errorf("%s is set; the benchmark runs the program with its defaults only", name)
		}
	}
	return nil
}

func printTable(rec record) {
	h := rec.Header
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d latency_samples=%d correct=%v\n",
		rec.Attempted, rec.Failed, rec.Samples, rec.Correct)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var c config
	var trace int
	compare := flag.Bool("compare", false, "compare two result sets written with -out: bench -compare A.jsonl B.jsonl")
	flag.StringVar(&c.workload, "workload", "", "workload to run")
	flag.Int64Var(&c.seed, "seed", 42, "roots every generated input")
	flag.Float64Var(&c.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny counts and no training, for tests")
	out := flag.String("out", "", "append the full result record to this file")
	flag.Parse()
	c.trace = trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		regressed, err := compareSets("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if err := refuseGEMMEnv(); err != nil {
		fatal(err)
	}
	if c.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	rec, err := run(&c)
	if err != nil {
		fatal(err)
	}
	printTable(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
