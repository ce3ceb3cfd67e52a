package runtimemgr

import (
	"math/rand"
	"testing"

	"pcnn/internal/nn"
	"pcnn/internal/workload"
)

// syntheticManager builds a fast Manager fixture: an untrained scaled
// network (weights don't matter — the Uncertainty hook overrides the
// entropy measurement) over a synthetic tuning table whose zero keeps
// mean "full layer" at every level.
func syntheticManager(t *testing.T, levels int, threshold float64) (*Manager, func() ([][]float32, float64)) {
	t.Helper()
	net := nn.AlexNetS(rand.New(rand.NewSource(3)))
	nPerf := len(net.PerforableLayers())
	table := &Table{}
	for i := 0; i < levels; i++ {
		table.Entries = append(table.Entries, TableEntry{
			Keeps:   make([]nn.Keep, nPerf),
			Speedup: 1 + float64(i)*0.25,
		})
	}
	m, err := NewManager(net, table, threshold)
	if err != nil {
		t.Fatal(err)
	}

	s := workload.NewSynth(workload.DefaultSynth())
	_, test := s.TrainTest(1, 4)
	infer := func() ([][]float32, float64) { return m.Infer(test.X) }
	return m, infer
}

// TestCalibrationBacktracksOneStep is the table-driven core of the
// satellite: entropy-threshold crossings walk the tuning path back
// exactly one step per calibration, never more, and recovery re-advances
// only after a full confident streak. Each step gives the uncertainty
// the hook reports and the level expected after the batch.
func TestCalibrationBacktracksOneStep(t *testing.T) {
	const threshold = 1.0
	cases := []struct {
		name         string
		levels       int
		recoverAfter int
		uncertainty  []float64
		wantLevels   []int
		wantCalibs   int
	}{
		{
			name:   "single crossing steps back once",
			levels: 4, recoverAfter: 0,
			uncertainty: []float64{0.5, 1.5, 0.5},
			wantLevels:  []int{3, 2, 2},
			wantCalibs:  1,
		},
		{
			name:   "huge crossing still steps back only once",
			levels: 4, recoverAfter: 0,
			uncertainty: []float64{50},
			wantLevels:  []int{2},
			wantCalibs:  1,
		},
		{
			name:   "consecutive crossings walk back one per batch",
			levels: 4, recoverAfter: 0,
			uncertainty: []float64{1.5, 1.5, 1.5, 1.5},
			wantLevels:  []int{2, 1, 0, 0},
			wantCalibs:  3,
		},
		{
			name:   "level zero cannot backtrack further",
			levels: 1, recoverAfter: 0,
			uncertainty: []float64{9, 9},
			wantLevels:  []int{0, 0},
			wantCalibs:  0,
		},
		{
			name:   "recovery needs the full confident streak",
			levels: 3, recoverAfter: 2,
			// crossing, then three comfortable batches (≤ 0.8·threshold).
			uncertainty: []float64{1.5, 0.7, 0.7, 0.7},
			wantLevels:  []int{1, 1, 2, 2},
			wantCalibs:  1,
		},
		{
			name:   "borderline entropy does not recover",
			levels: 3, recoverAfter: 1,
			// 0.9 is under the threshold but above the 0.8 comfort margin:
			// neither a calibration nor a recovery step.
			uncertainty: []float64{1.5, 0.9, 0.9},
			wantLevels:  []int{1, 1, 1},
			wantCalibs:  1,
		},
		{
			name:   "crossing resets the confident streak",
			levels: 3, recoverAfter: 2,
			uncertainty: []float64{1.5, 0.7, 1.5, 0.7, 0.7},
			wantLevels:  []int{1, 1, 0, 0, 1},
			wantCalibs:  2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, infer := syntheticManager(t, c.levels, threshold)
			m.RecoverAfter = c.recoverAfter
			step := 0
			m.Uncertainty = func([][]float32) float64 { return c.uncertainty[step] }
			for i := range c.uncertainty {
				step = i
				infer()
				if m.Level() != c.wantLevels[i] {
					t.Fatalf("after batch %d (h=%v): level %d, want %d",
						i, c.uncertainty[i], m.Level(), c.wantLevels[i])
				}
			}
			if m.Calibrations() != c.wantCalibs {
				t.Errorf("calibrations = %d, want %d", m.Calibrations(), c.wantCalibs)
			}
		})
	}
}
