package runtimemgr

import (
	"fmt"

	"pcnn/internal/entropy"
	"pcnn/internal/nn"
	"pcnn/internal/tensor"
)

// Manager is the run-time executor of Fig 10: it runs inference at the
// most aggressive acceptable tuning-table level, monitors the output
// uncertainty of every batch, and calibrates — backtracks one level along
// the tuning path (Section IV.C.3) — whenever uncertainty exceeds the
// threshold. It recovers levels again after a streak of confident batches.
// A level is the options of the calls it makes; the network is never
// mutated.
type Manager struct {
	net       *nn.Sequential
	opts      []*nn.ForwardOpts // opts[level]: the tuning table's rows
	threshold float64
	level     int

	// confidentStreak counts consecutive batches comfortably under the
	// threshold; RecoverAfter of them re-advance one level.
	confidentStreak int
	// RecoverAfter disables level recovery when 0.
	RecoverAfter int
	// Uncertainty, when non-nil, replaces the mean-entropy measurement on
	// each Infer — the test seam for driving the calibration loop through
	// exact threshold crossings (mirroring Tuner.Uncertainty).
	Uncertainty func(probs [][]float32) float64

	calibrations int
}

// NewManager builds a runtime manager starting at the table's most
// aggressive entry.
func NewManager(net *nn.Sequential, table *Table, threshold float64) (*Manager, error) {
	if len(table.Entries) == 0 {
		return nil, fmt.Errorf("runtimemgr: empty tuning table")
	}
	return &Manager{
		net:          net,
		opts:         table.ForwardOpts(net),
		threshold:    threshold,
		level:        len(table.Entries) - 1,
		RecoverAfter: 8,
	}, nil
}

// Level returns the current tuning-table level (0 = unperforated).
func (m *Manager) Level() int { return m.level }

// Calibrations returns how many times the manager backed off a level.
func (m *Manager) Calibrations() int { return m.calibrations }

// Infer classifies a batch at the current level, returning softmax rows
// and the batch's mean output entropy. If the uncertainty exceeds the
// threshold, the manager calibrates: it steps one level back along the
// tuning path before the next batch.
func (m *Manager) Infer(x *tensor.Tensor) ([][]float32, float64) {
	probs := m.net.PredictWith(x, m.opts[m.level])
	h := entropy.Mean(probs)
	if m.Uncertainty != nil {
		h = m.Uncertainty(probs)
	}
	switch {
	case h > m.threshold && m.level > 0:
		m.level--
		m.calibrations++
		m.confidentStreak = 0
	case m.RecoverAfter > 0 && h <= m.threshold*0.8 && m.level < len(m.opts)-1:
		m.confidentStreak++
		if m.confidentStreak >= m.RecoverAfter {
			m.level++
			m.confidentStreak = 0
		}
	default:
		m.confidentStreak = 0
	}
	return probs, h
}
