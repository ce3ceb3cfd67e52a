package compile

import "pcnn/internal/gpu"

// LayerProfile is one layer's measured slice of a simulated plan
// execution, paired with the Eq 12 time-model prediction for the same
// layer — the per-layer raw material run-time tuning decisions consume
// (NeuralPower-style measured time/energy next to the model's estimate).
type LayerProfile struct {
	Name        string  `json:"name"`
	PredictedMS float64 `json:"predicted_ms"`
	TimeMS      float64 `json:"time_ms"`
	EnergyJ     float64 `json:"energy_j"`
	IssueUtil   float64 `json:"issue_util"`
	DRAMUtil    float64 `json:"dram_util"`
}

// LayerNames returns the plan's layer names in execution order.
func (p *Plan) LayerNames() []string {
	out := make([]string, len(p.Layers))
	for i, l := range p.Layers {
		out[i] = l.Name
	}
	return out
}

// ProfileResults folds per-launch simulator results into a named
// per-layer breakdown. keep holds perforation keep fractions scaling each
// conv layer's prediction exactly the way the serving executor's
// PredictMS does (nil or missing entries mean the full layer), so the
// profile's predicted column sums to the prediction the batcher used.
// results must come from simulating this plan's launches (one per layer,
// in order); a shorter slice profiles the prefix.
func (p *Plan) ProfileResults(results []gpu.Result, keep map[string]float64) []LayerProfile {
	n := len(p.Layers)
	if len(results) < n {
		n = len(results)
	}
	out := make([]LayerProfile, 0, n)
	for i := 0; i < n; i++ {
		l := p.Layers[i]
		frac := 1.0
		if l.GEMM.IsConv {
			if f, ok := keep[l.Name]; ok && f < 1 {
				frac = f
			}
		}
		r := results[i]
		out = append(out, LayerProfile{
			Name:        l.Name,
			PredictedMS: l.PredictedMS * frac,
			TimeMS:      r.TimeMS,
			EnergyJ:     r.EnergyJ,
			IssueUtil:   r.IssueUtil,
			DRAMUtil:    r.DRAMUtil,
		})
	}
	return out
}
