package fleet

import "pcnn/internal/obs"

// modelAgg is one model's slice of a soak aggregate.
type modelAgg struct {
	requests int
	served   int
	missed   int
	hist     obs.LatencyHist
}

// soakAgg accumulates one row's resolved requests: integer counters and
// fixed-size histograms, so its size never grows with the trace.
type soakAgg struct {
	served   int
	failed   int
	missed   int
	hist     obs.LatencyHist
	perModel []modelAgg
}

func newSoakAgg(nModels int) *soakAgg {
	return &soakAgg{perModel: make([]modelAgg, nModels)}
}

// observeServed folds one successfully served request in.
func (a *soakAgg) observeServed(model int, responseMS float64, deadlineMet bool) {
	a.served++
	a.hist.Observe(responseMS)
	m := &a.perModel[model]
	m.requests++
	m.served++
	m.hist.Observe(responseMS)
	if !deadlineMet {
		a.missed++
		m.missed++
	}
}

// observeFailed folds one request whose every leg failed.
func (a *soakAgg) observeFailed(model int) {
	a.failed++
	a.perModel[model].requests++
}
