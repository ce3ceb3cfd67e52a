package serve

import (
	"context"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
)

// TestPredictExportsRoutingState pins the /predict payload source: the
// exported prediction must agree with PredictCompletionMS, reflect a
// declared busy horizon, and price a requested batch with Eq 12.
func TestPredictExportsRoutingState(t *testing.T) {
	ex := &fakeExec{maxBatch: 4, msPerImage: []float64{2, 1}, entropies: []float64{0.1, 0.2}}
	clk := time.Unix(1_700_000_000, 0)
	srv, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 1, ManualFlush: true, Clock: func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	p := srv.Predict(0)
	if p.PredictMS != srv.PredictCompletionMS() {
		t.Errorf("PredictMS %.3f != PredictCompletionMS %.3f", p.PredictMS, srv.PredictCompletionMS())
	}
	if p.CapacityRPS != srv.CapacityRPS() {
		t.Errorf("CapacityRPS %.3f != server's %.3f", p.CapacityRPS, srv.CapacityRPS())
	}
	if p.BatchMS != 0 {
		t.Errorf("unrequested BatchMS = %.3f, want 0", p.BatchMS)
	}
	if p.MaxBatch != srv.cfg.MaxBatch || p.QueueDepth != 0 || p.BusyMS != 0 {
		t.Errorf("idle prediction wrong: %+v", p)
	}

	// Queue two requests and declare a busy horizon: both must surface.
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(); err != nil {
			t.Fatal(err)
		}
	}
	srv.SetBusyUntil(clk.Add(250 * time.Millisecond))
	p = srv.Predict(3)
	if p.QueueDepth != 2 {
		t.Errorf("QueueDepth = %d, want 2", p.QueueDepth)
	}
	if p.BusyMS != 250 {
		t.Errorf("BusyMS = %.3f, want 250", p.BusyMS)
	}
	if want := ex.PredictMS(p.Level, 3); p.BatchMS != want {
		t.Errorf("BatchMS = %.3f, want %.3f", p.BatchMS, want)
	}
	if p.PredictMS <= 250 {
		t.Errorf("PredictMS %.3f should include the busy horizon", p.PredictMS)
	}
	if p.PredictMS != srv.PredictCompletionMS() {
		t.Errorf("loaded PredictMS %.3f != PredictCompletionMS %.3f", p.PredictMS, srv.PredictCompletionMS())
	}
}
