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
// per-layer breakdown whose predicted column is PredictMS's per-layer
// terms at the plan's batch under keep (LayerPredictMS), so the column
// sums to PredictMS(p, p.Batch, keep). results must come from simulating
// this plan's launches (one per layer, in order); a shorter slice
// profiles the prefix.
func (p *Plan) ProfileResults(results []gpu.Result, keep map[string]float64) []LayerProfile {
	pred := LayerPredictMS(p, p.Batch, keep)
	n := min(len(results), len(pred))
	out := make([]LayerProfile, 0, n)
	for i, r := range results[:n] {
		out = append(out, LayerProfile{
			Name:        p.Layers[i].Name,
			PredictedMS: pred[i],
			TimeMS:      r.TimeMS,
			EnergyJ:     r.EnergyJ,
			IssueUtil:   r.IssueUtil,
			DRAMUtil:    r.DRAMUtil,
		})
	}
	return out
}
