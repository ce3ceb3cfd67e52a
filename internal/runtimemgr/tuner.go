// Package runtimemgr implements P-CNN's run-time management phase
// (Section IV.C, the right half of Fig 10): entropy-based accuracy tuning
// that greedily perforates one conv layer per iteration guided by the TE
// metric (Eq 14, Fig 12), the tuning tables the procedure emits, and the
// calibrating runtime manager that monitors output uncertainty during
// execution and backtracks along the tuning path when it crosses the
// user's threshold.
package runtimemgr

import (
	"fmt"
	"math"

	"pcnn/internal/entropy"
	"pcnn/internal/nn"
	"pcnn/internal/tensor"
)

// TableEntry is one row of a tuning table — one operating point: the
// per-layer keeps after an iteration of Fig 12, with the predicted time and
// measured uncertainty.
type TableEntry struct {
	Keeps       []nn.Keep
	PredictedMS float64
	Entropy     float64
	// Speedup is predicted time of entry 0 over this entry's.
	Speedup float64
	// TunedLayer is the index of the layer adjusted in this iteration
	// (-1 for the baseline entry).
	TunedLayer int
}

// Table is the tuning table: entry 0 is the unperforated baseline and each
// later entry is one greedy iteration more aggressive. Calibration walks
// this path backwards.
type Table struct {
	LayerNames []string
	Entries    []TableEntry
}

// ForwardOpts resolves every row into the options of one inference call on
// net, the network the table was tuned on, on the package-default engine:
// opts[level] runs the network at that operating point without touching it.
func (t *Table) ForwardOpts(net *nn.Sequential) []*nn.ForwardOpts {
	opts := make([]*nn.ForwardOpts, len(t.Entries))
	for l, e := range t.Entries {
		opts[l] = net.NewForwardOpts(e.Keeps, nil)
	}
	return opts
}

// KeepFractions returns, for the given entry, each layer's computed-area
// fraction (Wo′H′/WoHo), keyed by layer name — the form the offline plan's
// PerforatedLaunches consumes.
func (t *Table) KeepFractions(level int, dims []nn.Keep) map[string]float64 {
	out := make(map[string]float64, len(t.LayerNames))
	e := t.Entries[level]
	for i, name := range t.LayerNames {
		full := float64(dims[i].W * dims[i].H)
		k := e.Keeps[i]
		if k.Full(dims[i].W, dims[i].H) {
			out[name] = 1
			continue
		}
		out[name] = float64(k.W*k.H) / full
	}
	return out
}

// flopsTimeModel predicts the network's run time (arbitrary units — only
// ratios matter) for a vector of per-layer keeps: each perforable conv
// layer's cost scales with its computed-area fraction; everything else is
// a fixed floor.
func flopsTimeModel(net *nn.Sequential) func(keeps []nn.Keep) float64 {
	layers := net.PerforableLayers()
	flops := make([]float64, len(layers))
	dims := make([]nn.Keep, len(layers))
	var fixed float64
	for i, conv := range layers {
		flops[i] = conv.Shape().FLOPsPerImage()
		ho, wo := conv.OutDims()
		dims[i] = nn.Keep{W: wo, H: ho}
	}
	// A modest fixed cost for pools/FC keeps speedups finite.
	for _, f := range flops {
		fixed += 0.05 * f / float64(len(flops))
	}
	return func(keeps []nn.Keep) float64 {
		t := fixed
		for i, k := range keeps {
			frac := 1.0
			if !k.Full(dims[i].W, dims[i].H) {
				frac = float64(k.W*k.H) / float64(dims[i].W*dims[i].H)
			}
			t += flops[i] * frac
		}
		return t
	}
}

// Tuner runs the greedy accuracy-tuning procedure of Fig 12. It never
// mutates Net: every trial is one operating point, measured through the
// options of the calls it makes.
type Tuner struct {
	Net   *nn.Sequential
	Probe *tensor.Tensor // unlabelled inputs used to measure uncertainty
	// Threshold is the maximum acceptable mean output entropy (nats).
	Threshold float64
	// MaxIters bounds the greedy loop (default 24).
	MaxIters int
	// Uncertainty, when non-nil, replaces the entropy measurement: it is
	// called with a trial's operating point and returns a "higher is
	// worse" score in the same units as Threshold. The paper's
	// accuracy-based comparison (Fig 16) plugs 1−accuracy here; the
	// default is mean output entropy on Probe.
	Uncertainty func(*nn.ForwardOpts) float64
}

const (
	// teEpsilon floors Eq 14's entropy delta so that trials which do not
	// increase uncertainty rank (deterministically) best.
	teEpsilon = 1e-6
	// stepFrac is the per-iteration area shrink applied to the trialled
	// layer: each trial computes 20% fewer positions.
	stepFrac = 0.8
)

// Run executes the tuning procedure and returns the table.
func (t *Tuner) Run() (*Table, error) {
	layers := t.Net.PerforableLayers()
	if len(layers) == 0 {
		return nil, fmt.Errorf("runtimemgr: %s has no perforable layers", t.Net.Name())
	}
	if t.Uncertainty == nil && (t.Probe == nil || t.Probe.Dim(0) == 0) {
		return nil, fmt.Errorf("runtimemgr: tuner needs probe inputs")
	}
	maxIters := t.MaxIters
	if maxIters <= 0 {
		maxIters = 24
	}
	timeOf := flopsTimeModel(t.Net)

	dims := make([]nn.Keep, len(layers))
	names := make([]string, len(layers))
	for i, l := range layers {
		ho, wo := l.OutDims()
		dims[i] = nn.Keep{W: wo, H: ho}
		names[i] = l.Name()
	}
	keeps := append([]nn.Keep(nil), dims...)

	baseMS := timeOf(keeps)
	baseEntropy := t.measure(keeps)
	table := &Table{LayerNames: names}
	table.Entries = append(table.Entries, TableEntry{
		Keeps:       append([]nn.Keep(nil), keeps...),
		PredictedMS: baseMS,
		Entropy:     baseEntropy,
		Speedup:     1,
		TunedLayer:  -1,
	})
	if baseEntropy > t.Threshold {
		// The unperforated network is already above the threshold; there
		// is nothing to tune (the paper assumes a confident base model).
		return table, nil
	}

	curMS, curEntropy := baseMS, baseEntropy
	for iter := 0; iter < maxIters; iter++ {
		bestLayer := -1
		bestTE := math.Inf(-1)
		var bestKeep nn.Keep
		var bestMS, bestEntropy float64
		for i := range layers {
			trial, ok := shrink(keeps[i], dims[i])
			if !ok {
				continue
			}
			old := keeps[i]
			keeps[i] = trial
			trialMS := timeOf(keeps)
			trialEntropy := t.measure(keeps)
			keeps[i] = old

			dE := math.Max(trialEntropy-curEntropy, teEpsilon)
			te := (curMS - trialMS) / dE // Eq 14
			if te > bestTE {
				bestTE = te
				bestLayer = i
				bestKeep = trial
				bestMS = trialMS
				bestEntropy = trialEntropy
			}
		}
		if bestLayer < 0 {
			break // every layer is at its minimum grid
		}
		if bestEntropy > t.Threshold {
			break // committing would violate the user's uncertainty budget
		}
		keeps[bestLayer] = bestKeep
		curMS, curEntropy = bestMS, bestEntropy
		table.Entries = append(table.Entries, TableEntry{
			Keeps:       append([]nn.Keep(nil), keeps...),
			PredictedMS: curMS,
			Entropy:     curEntropy,
			Speedup:     baseMS / curMS,
			TunedLayer:  bestLayer,
		})
	}
	return table, nil
}

// measure returns the uncertainty score of the network computing keeps
// (mean entropy on the probe set by default).
func (t *Tuner) measure(keeps []nn.Keep) float64 {
	o := t.Net.NewForwardOpts(keeps, nil)
	if t.Uncertainty != nil {
		return t.Uncertainty(o)
	}
	return entropy.Mean(t.Net.PredictWith(t.Probe, o))
}

// shrink reduces a keep grid's area by stepFrac, spreading the reduction
// over both axes. It reports false when the grid is already minimal.
func shrink(k, dim nn.Keep) (nn.Keep, bool) {
	w, h := k.W, k.H
	if w <= 0 || h <= 0 {
		w, h = dim.W, dim.H
	}
	if w <= 1 && h <= 1 {
		return nn.Keep{}, false
	}
	f := math.Sqrt(stepFrac)
	nw := int(math.Floor(float64(w) * f))
	nh := int(math.Floor(float64(h) * f))
	if nw < 1 {
		nw = 1
	}
	if nh < 1 {
		nh = 1
	}
	if nw == w && nh == h {
		nw = w - 1
		if nw < 1 {
			nw = 1
			nh = h - 1
		}
	}
	return nn.Keep{W: nw, H: nh}, true
}
