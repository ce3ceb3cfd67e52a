package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark runs from the repository root (BENCHMARK.json,
// BENCH_scenarios.json and bench/out are relative to it).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(histogram)
	for us := int64(1); us <= 1000; us++ {
		h.record(us * 1000)
	}
	for _, c := range []struct{ q, wantUS float64 }{{0.50, 500}, {0.90, 900}, {0.99, 990}} {
		if got := h.quantile(c.q) / 1000; math.Abs(got-c.wantUS) > 0.005*c.wantUS {
			t.Errorf("quantile(%v) = %.2f µs, want %.0f within 0.5%%", c.q, got, c.wantUS)
		}
	}
	if got := new(histogram).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}

	// Buckets tile the range: every sample lies inside its own bucket.
	for _, ns := range []int64{0, 1, 255, 256, 257, 511, 512, 1000, 123456789, 1 << 40, math.MaxInt64} {
		i := bucketOf(ns)
		if lo, hi := bucketLow(i), bucketLow(i+1); float64(ns) < lo || float64(ns) >= hi && ns != math.MaxInt64 {
			t.Errorf("sample %d in bucket %d = [%g, %g)", ns, i, lo, hi)
		}
	}

	// Merging is exact.
	a, b, both := new(histogram), new(histogram), new(histogram)
	for i := int64(1); i <= 500; i++ {
		a.record(i * 3000)
		b.record(i * 7000)
		both.record(i * 3000)
		both.record(i * 7000)
	}
	a.merge(b)
	if *a != *both {
		t.Error("merged histogram differs from one that saw every sample")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},     // overlaps a: counted once
		{Name: "late", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "grandchild", Parent: 1, Start: 12, End: 18},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each input.
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 100}, []float64{15, 30, 70}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := []float64{q1, q2, q3}; got[0] != c.want[0] || got[1] != c.want[1] || got[2] != c.want[2] {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSliceCredit(t *testing.T) {
	b := &budget{start: time.Unix(0, 0), deadline: time.Unix(20, 0)}
	st := newWindowStats(b)
	at := func(s float64) time.Time { return b.start.Add(time.Duration(s * float64(time.Second))) }
	st.succeed(at(0.5), at(3.0))   // half of slice 0, all of 1 and 2
	st.succeed(at(4.1), at(4.2))   // inside slice 4
	st.succeed(at(19.5), at(20.5)) // half inside the window, half after it
	want := map[int]float64{0: 0.2, 1: 0.4, 2: 0.4, 4: 1, 19: 0.5}
	for k, c := range st.credit {
		if math.Abs(c-want[k]) > 1e-9 {
			t.Errorf("slice %d credit = %v, want %v", k, c, want[k])
		}
	}
	if st.lat.n != 3 {
		t.Errorf("recorded %d latencies, want 3", st.lat.n)
	}
	// 15 empty slices, then 0.2, 0.4, 0.4, 0.5, 1 op per one-second slice.
	if got := st.throughput(0.5); got != 0 {
		t.Errorf("median slice rate = %v, want 0", got)
	}
	if got, want := st.throughput(1), 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("best slice rate = %v, want %v", got, want)
	}
}

func TestRefuseGEMMEnv(t *testing.T) {
	if err := refuseGEMMEnv(); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	t.Setenv("PCNN_GEMM_BACKEND", "blocked")
	if err := refuseGEMMEnv(); err == nil || !strings.Contains(err.Error(), "PCNN_GEMM_BACKEND") {
		t.Fatalf("PCNN_GEMM_BACKEND accepted: %v", err)
	}
}

// TestManifestMatches keeps BENCHMARK.json and the tables in metrics.go in
// step, and holds both to the limits the benchmark contract sets.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
	wantWorkloads := []string{wServeForward, wFleetWire, wConvFullshape, wSimRegen}
	if len(man.Workloads) != len(wantWorkloads) {
		t.Fatalf("%d workloads, want %d", len(man.Workloads), len(wantWorkloads))
	}
	for i, w := range man.Workloads {
		if w.Name != wantWorkloads[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %+v", i, w)
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go, limit %d", kind, len(got), len(want), limit)
		}
		for i, w := range want {
			w.Owner = ""
			if got[i] != w {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, 16)
	check("per_layer", man.PerLayer, perLayer, 128)
	setup := false
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// mayBeZero lists owned per-layer metrics a tiny smoke window can
// legitimately read as zero.
var mayBeZero = map[string]bool{"fleet.hedge.frac": true, "serve.stage.escalate.p50_ms": true}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload end to end, untraced and traced, with tiny
// counts and an untrained network, and checks the output schema, the
// correctness verdict and the span file.
func TestSmoke(t *testing.T) {
	for _, name := range []string{wServeForward, wFleetWire, wConvFullshape, wSimRegen} {
		for _, trace := range []bool{false, true} {
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				rec, err := run(&config{workload: name, seed: 42, seconds: 0.8, trace: trace, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(rec.Metrics), len(defs))
				}
				seen := map[string]bool{}
				for _, d := range defs {
					m, ok := rec.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.Name)
					case seen[d.Name]:
						t.Errorf("%s defined twice", d.Name)
					case !nameRE.MatchString(d.Name) || !unitRE.MatchString(m.Unit) || m.Unit != d.Unit:
						t.Errorf("%s: bad name or unit %q", d.Name, m.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					case trace && (d.Owner == name) && m.Value == 0 && !mayBeZero[d.Name]:
						t.Errorf("%s is owned by %s but reads 0", d.Name, name)
					case trace && d.Owner != "" && d.Owner != name && m.Value != 0:
						t.Errorf("%s = %v in %s, which does not own it", d.Name, m.Value, name)
					}
					seen[d.Name] = true
				}
				if trace {
					checkSpanFile(t, name)
				}
			})
		}
	}
}

// spanNesting is, per workload, the chain of span names that must nest.
var spanNesting = map[string][]string{
	wServeForward:  {"request", "serve.execute.batch"},
	wFleetWire:     {"wire.infer", "handler.infer", "execute"},
	wConvFullshape: {"sweep", "nn.conv.alexnet_conv3"},
	wSimRegen:      {"pass", "fleet.soak"},
}

func checkSpanFile(t *testing.T, workload string) {
	raw, err := os.ReadFile(filepath.Join(outDir, "trace_"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header header `json:"header"`
		Spans  []struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Header.Workload != workload || doc.Header.GoVersion == "" || doc.Header.NProc < 1 {
		t.Errorf("span file header = %+v", doc.Header)
	}
	byID := map[int]int{}
	for i, s := range doc.Spans {
		byID[s.ID] = i
	}
	chain := spanNesting[workload]
	linked := make([]int, len(chain))
	for _, s := range doc.Spans {
		if s.Self < 0 || s.End < s.Start {
			t.Fatalf("span %d (%s): start %d end %d self %d", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent < 0 {
			if s.Name == chain[0] {
				linked[0]++
			}
			continue
		}
		p := doc.Spans[byID[s.Parent]]
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) [%d, %d] is not inside its parent %s [%d, %d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		for k := 1; k < len(chain); k++ {
			if s.Name == chain[k] && p.Name == chain[k-1] {
				linked[k]++
			}
		}
	}
	for k, n := range linked {
		if n == 0 {
			t.Errorf("no %s span nested as %v requires", chain[k], chain)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput ...float64) string {
		var buf bytes.Buffer
		for i, v := range throughput {
			rec := record{Header: header{Workload: wFleetWire, Seed: int64(i)}}
			rec.Correct, rec.Attempted = true, 1
			rec.Metrics = map[string]metric{}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			rec.Metrics["throughput_p90_ops_s"] = metric{Value: v, Unit: "1/s"}
			if err := json.NewEncoder(&buf).Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	man := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(man, []byte(`{"workloads":[{"name":"fleet_wire"}],"end_to_end":[
		{"name":"throughput_p90_ops_s","unit":"1/s","better":"higher","bound":0.10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.jsonl", 100, 102, 98)
	var out bytes.Buffer
	if regressed, err := compareSets(man, base, write("same.jsonl", 95, 99, 97), &out); err != nil || regressed {
		t.Errorf("3%% lower throughput under a 10%% bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareSets(man, base, write("slow.jsonl", 80, 85, 82), &out); err != nil || !regressed {
		t.Errorf("18%% lower throughput under a 10%% bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("table does not mark the regression:\n%s", out.String())
	}
}
