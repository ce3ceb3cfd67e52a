package scenario

import (
	"bytes"
	"sync"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/fault"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

// encodeMatrix renders a matrix the way BENCH_scenarios.json is written.
func encodeMatrix(t *testing.T, m Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runMatrix(t *testing.T, specs []Spec) Matrix {
	t.Helper()
	var e Engine
	m, err := e.RunMatrix(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMatrixSameSeedByteIdentical is the engine's core promise: two runs
// of the same specs, in fresh engines, produce byte-identical JSON rows —
// chaos cells included.
func TestMatrixSameSeedByteIdentical(t *testing.T) {
	specs := SmokeMatrix(42)
	a := runMatrix(t, specs)
	b := runMatrix(t, specs)
	ja, jb := encodeMatrix(t, a), encodeMatrix(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same-seed matrix runs differ:\n--- run A ---\n%s\n--- run B ---\n%s", ja, jb)
	}
	if len(a.Rows) != len(specs) {
		t.Fatalf("matrix has %d rows, want %d", len(a.Rows), len(specs))
	}
}

// TestRunMatrixMatchesSerialRuns: RunMatrix fans its rows out over one
// engine, whose caches the rows share; the matrix must equal the specs
// run one by one, each on a fresh engine, byte for byte. And the shared
// caches compile each deployment exactly once: an ExecutorFor hook sees
// one plan pointer per (platform, task) across every DVFS row, however
// many rows race to it.
func TestRunMatrixMatchesSerialRuns(t *testing.T) {
	specs := SmokeMatrix(42)
	serial := Matrix{Schema: MatrixSchema}
	for _, sp := range specs {
		var fresh Engine
		row, err := fresh.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		serial.Rows = append(serial.Rows, row)
	}
	if got, want := encodeMatrix(t, runMatrix(t, specs)), encodeMatrix(t, serial); !bytes.Equal(got, want) {
		t.Fatalf("RunMatrix differs from serial runs:\n--- RunMatrix ---\n%s\n--- serial ---\n%s", got, want)
	}

	type key struct{ platform, task string }
	var mu sync.Mutex
	seen := map[key]map[*compile.Plan]bool{}
	e := Engine{ExecutorFor: func(sp Spec, st StreamSpec, plan *compile.Plan) (serve.Executor, error) {
		if sp.DVFS {
			mu.Lock()
			k := key{sp.Platform, st.Task}
			if seen[k] == nil {
				seen[k] = map[*compile.Plan]bool{}
			}
			seen[k][plan] = true
			mu.Unlock()
		}
		return serve.NewPlanExecutor(plan, nil, nil, nil)
	}}
	if _, err := e.RunMatrix(specs, nil); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no DVFS row reached ExecutorFor")
	}
	for k, plans := range seen {
		if len(plans) != 1 {
			t.Errorf("%s/%s: rows received %d distinct plans, want one", k.platform, k.task, len(plans))
		}
	}
}

// TestMatrixSeedDiverges: a different seed must actually change the
// outcome — otherwise the "deterministic" matrix would just be constant.
func TestMatrixSeedDiverges(t *testing.T) {
	// The poisson chaos cell depends on the seed through both the arrival
	// process and every fault stream.
	base := SmokeMatrix(42)[1]
	if !base.Chaos.Enabled() {
		t.Fatalf("expected SmokeMatrix row 1 to be the chaos cell, got %+v", base)
	}
	reseeded := base
	reseeded.Seed += 1000
	reseeded.Chaos.Seed = reseeded.Seed

	a := runMatrix(t, []Spec{base})
	b := runMatrix(t, []Spec{reseeded})
	// Strip the fields that legitimately echo the seed before comparing.
	a.Rows[0].Seed, b.Rows[0].Seed = 0, 0
	a.Rows[0].Chaos, b.Rows[0].Chaos = "", ""
	if bytes.Equal(encodeMatrix(t, a), encodeMatrix(t, b)) {
		t.Fatal("different seeds produced identical scenario rows")
	}
}

// TestChaosDisabledEqualsClean: a chaos spec with every rate zero serves
// exactly like no chaos spec at all — attaching the disabled injector is
// free — while an enabled chaos spec must change the row.
func TestChaosDisabledEqualsClean(t *testing.T) {
	clean := SmokeMatrix(42)[0]
	if clean.Chaos.Enabled() {
		t.Fatalf("expected SmokeMatrix row 0 to be the clean cell, got %+v", clean)
	}
	disabled := clean
	disabled.Chaos = fault.Spec{Seed: 7} // a seed but nothing to inject
	chaotic := clean
	chaotic.Chaos = defaultChaos(clean.Seed)

	mClean := runMatrix(t, []Spec{clean})
	mDisabled := runMatrix(t, []Spec{disabled})
	mChaotic := runMatrix(t, []Spec{chaotic})

	if !bytes.Equal(encodeMatrix(t, mClean), encodeMatrix(t, mDisabled)) {
		t.Fatal("zero-rate chaos spec changed the scenario outcome")
	}
	if mChaotic.Rows[0].Faults.Total() == 0 {
		t.Fatal("enabled chaos spec injected nothing")
	}
	mChaotic.Rows[0].Chaos = ""
	if bytes.Equal(encodeMatrix(t, mClean), encodeMatrix(t, mChaotic)) {
		t.Fatal("enabled chaos spec did not change the scenario outcome")
	}
}

// TestBacklogGrowsTheBatch: one surveillance stream on the serve grid's
// first two rows. At half of one worker's capacity it mostly meets its
// deadlines; at full capacity the backlog grows the batch. It is the
// window that waits for its busy worker that makes it so: a window
// closing while the worker is busy executes singleton batches that each
// cost more per image than a full one, so the half-capacity stream
// backed up and missed 99 % at mean batch 1.
func TestBacklogGrowsTheBatch(t *testing.T) {
	specs := ServeMatrix("TX1", "AlexNet", StreamSpec{Task: "surveillance", Requests: 300}, 42)[:2]
	for i, load := range []float64{0.5, 1} {
		if got := specs[i].Streams[0].Load; got != load {
			t.Fatalf("serve grid row %d runs at load %v, want %v", i, got, load)
		}
	}
	rows := runMatrix(t, specs).Rows
	if half := rows[0].Streams[0]; !(half.MissRate < 0.5) {
		t.Errorf("half-capacity stream: miss rate %.3f at mean batch %.2f, want < 0.5",
			half.MissRate, half.MeanBatch)
	}
	if full := rows[1].Streams[0]; !(full.MeanBatch > 1) {
		t.Errorf("full-capacity stream: mean batch %.2f (miss rate %.3f), want > 1",
			full.MeanBatch, full.MissRate)
	}
}

// TestDefaultMatrixShape pins the committed grid's coverage: twelve
// scenarios spanning ≥2 platforms, ≥2 arrival processes, mixed archetypes
// on every cell, with and without chaos.
func TestDefaultMatrixShape(t *testing.T) {
	specs := DefaultMatrix(42)
	if len(specs) != 12 {
		t.Fatalf("DefaultMatrix has %d specs, want 12", len(specs))
	}
	platforms := map[string]bool{}
	arrivals := map[string]bool{}
	var chaosOn, chaosOff int
	names := map[string]bool{}
	for _, sp := range specs {
		if err := sp.withDefaults().Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
		if names[sp.Name] {
			t.Errorf("duplicate scenario name %q", sp.Name)
		}
		names[sp.Name] = true
		platforms[sp.Platform] = true
		classes := map[string]bool{}
		for _, st := range sp.Streams {
			arrivals[st.Arrival] = true
			task, err := satisfaction.TaskByName(st.Task, st.FPS)
			if err != nil {
				t.Fatal(err)
			}
			classes[task.Class.String()] = true
		}
		if len(classes) != 3 {
			t.Errorf("%s mixes %d archetype classes, want 3", sp.Name, len(classes))
		}
		if sp.Chaos.Enabled() {
			chaosOn++
		} else {
			chaosOff++
		}
	}
	if len(platforms) < 2 {
		t.Errorf("grid spans %d platforms, want ≥2", len(platforms))
	}
	if len(arrivals) < 3 {
		t.Errorf("grid spans %v arrival kinds, want poisson, periodic, mmpp and diurnal coverage", arrivals)
	}
	if chaosOn == 0 || chaosOff == 0 {
		t.Errorf("grid has %d chaos and %d clean cells, want both", chaosOn, chaosOff)
	}
}
