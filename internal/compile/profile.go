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

// KeptMS is the layer's tuned prediction with a conv layer scaled
// linearly by its perforation keep fraction (nil or missing entries mean
// the full layer; perforation shrinks the GEMM N dimension
// proportionally). It is the one owner of that linear-keep time: the
// serving executor sums it over a plan compiled at exactly the requested
// batch, and ProfileResults reports it per layer, so the profile's
// predicted column sums to the prediction the batcher used.
func (l *LayerPlan) KeptMS(keep map[string]float64) float64 {
	frac := 1.0
	if l.GEMM.IsConv {
		if f, ok := keep[l.Name]; ok && f < 1 {
			frac = f
		}
	}
	return l.PredictedMS * frac
}

// ProfileResults folds per-launch simulator results into a named
// per-layer breakdown whose predicted column is each layer's KeptMS under
// keep. results must come from simulating this plan's launches (one per
// layer, in order); a shorter slice profiles the prefix.
func (p *Plan) ProfileResults(results []gpu.Result, keep map[string]float64) []LayerProfile {
	n := min(len(results), len(p.Layers))
	out := make([]LayerProfile, 0, n)
	for i, r := range results[:n] {
		l := &p.Layers[i]
		out = append(out, LayerProfile{
			Name:        l.Name,
			PredictedMS: l.KeptMS(keep),
			TimeMS:      r.TimeMS,
			EnergyJ:     r.EnergyJ,
			IssueUtil:   r.IssueUtil,
			DRAMUtil:    r.DRAMUtil,
		})
	}
	return out
}
