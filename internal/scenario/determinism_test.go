package scenario

import (
	"bytes"
	"testing"

	"pcnn/internal/fault"
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
// of the same specs, in fresh engines, produce byte-identical JSON rows
// and byte-identical Prometheus snapshots — chaos cells included.
func TestMatrixSameSeedByteIdentical(t *testing.T) {
	specs := SmokeMatrix(42)
	a := runMatrix(t, specs)
	b := runMatrix(t, specs)
	ja, jb := encodeMatrix(t, a), encodeMatrix(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same-seed matrix runs differ:\n--- run A ---\n%s\n--- run B ---\n%s", ja, jb)
	}
	var pa, pb bytes.Buffer
	if err := a.WritePrometheus(&pa); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Fatalf("same-seed prometheus snapshots differ:\n%s\nvs\n%s", pa.String(), pb.String())
	}
	if len(a.Rows) != len(specs) {
		t.Fatalf("matrix has %d rows, want %d", len(a.Rows), len(specs))
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

// TestBacklogGrowsTheBatch: one surveillance stream at half of one
// worker's capacity (the serve grid's first row) must batch and mostly
// meet its deadlines. It is the window that waits for its busy worker
// that makes it so: a window closing while the worker is busy executes
// singleton batches that each cost more per image than a full one, so
// the half-capacity stream backs up and missed 99 % at mean batch 1.
func TestBacklogGrowsTheBatch(t *testing.T) {
	sp := ServeMatrix("TX1", "AlexNet", StreamSpec{Task: "surveillance", Requests: 300}, 42)[0]
	if sp.Streams[0].Load != 0.5 {
		t.Fatalf("serve grid row 0 runs at load %v, want 0.5", sp.Streams[0].Load)
	}
	st := runMatrix(t, []Spec{sp}).Rows[0].Streams[0]
	if !(st.MissRate < 0.5) || !(st.MeanBatch > 1) {
		t.Errorf("half-capacity stream: miss rate %.3f at mean batch %.2f, want < 0.5 at > 1",
			st.MissRate, st.MeanBatch)
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
			task, err := taskFor(st)
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
