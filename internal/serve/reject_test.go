package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
)

// TestRejectUnmeetable pins slack-aware early rejection: a 30 fps frame
// budget (33 ms) can never absorb a 50 ms execution, so admission answers
// ErrDeadlineUnmeetable, the snapshot splits the reason out, and the
// labelled rejection counter moves.
func TestRejectUnmeetable(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	ex := &fakeExec{maxBatch: 4, msPerImage: []float64{50}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(30), Config{
		Workers: 1, ManualFlush: true, Clock: clk.now, RejectUnmeetable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	if _, err := s.Submit(); !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("Submit = %v, want ErrDeadlineUnmeetable", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.RejectedUnmeetable != 1 {
		t.Errorf("rejected=%d unmeetable=%d, want 1/1", st.Rejected, st.RejectedUnmeetable)
	}
	if st.Submitted != 0 {
		t.Errorf("rejected request counted as submitted (%d)", st.Submitted)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `pcnn_serve_rejected_total{reason="unmeetable"} 1`) {
		t.Error("metrics missing the unmeetable rejection series")
	}
}

// TestRejectUnmeetablePricesDeepestLevel pins the admission pricing rule:
// rejection only shuts out requests graceful degradation could not have
// saved. Level 1 runs in 10 ms — inside the 33 ms budget — so a
// degradable server admits even though its base level costs 50 ms; with
// degradation disabled the pinned base level is the only price, and the
// same request is rejected.
func TestRejectUnmeetablePricesDeepestLevel(t *testing.T) {
	// Level 1's entropy (0.5) exceeds the surveillance threshold (0.35),
	// so the base operating point stays at level 0 either way.
	mkExec := func() *fakeExec {
		return &fakeExec{maxBatch: 4, msPerImage: []float64{50, 10}, entropies: []float64{0.1, 0.5}}
	}
	clk := &vclock{}
	clk.set(0)

	degradable, err := NewServer(mkExec(), satisfaction.VideoSurveillance(30), Config{
		Workers: 1, ManualFlush: true, Clock: clk.now, RejectUnmeetable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer degradable.Close(context.Background())
	if _, err := degradable.Submit(); err != nil {
		t.Fatalf("degradable server rejected a request escalation could save: %v", err)
	}

	pinned, err := NewServer(mkExec(), satisfaction.VideoSurveillance(30), Config{
		Workers: 1, ManualFlush: true, Clock: clk.now, RejectUnmeetable: true,
		DisableDegrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close(context.Background())
	if _, err := pinned.Submit(); !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("degradation-disabled Submit = %v, want ErrDeadlineUnmeetable", err)
	}
}

// TestSetBusyUntilFeedsAdmission pins the declared-occupancy bridge
// virtual-time drivers use: a busy horizon ahead of the clock inflates
// completion prediction (rejecting what cannot meet its deadline behind
// it), and expires once the clock passes it.
func TestSetBusyUntilFeedsAdmission(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	ex := &fakeExec{maxBatch: 4, msPerImage: []float64{5}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.VideoSurveillance(30), Config{
		Workers: 1, ManualFlush: true, Clock: clk.now, RejectUnmeetable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	s.SetBusyUntil(epoch().Add(100 * time.Millisecond))
	if pred := s.Predict(0).PredictMS; pred < 100 {
		t.Errorf("PredictMS = %.1f, want ≥ 100 behind the busy horizon", pred)
	}
	if _, err := s.Submit(); !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("Submit behind 100 ms busy horizon = %v, want ErrDeadlineUnmeetable", err)
	}

	clk.set(200) // horizon passed — occupancy expired
	if pred := s.Predict(0).PredictMS; pred >= 100 {
		t.Errorf("PredictMS = %.1f after horizon expiry, want the bare execution cost", pred)
	}
	fut, err := s.Submit()
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundNeverUnmeetable pins the archetype contract: background
// tasks have no deadline, so early rejection never sheds them no matter
// how slow the executor or deep the declared backlog.
func TestBackgroundNeverUnmeetable(t *testing.T) {
	clk := &vclock{}
	clk.set(0)
	ex := &fakeExec{maxBatch: 4, msPerImage: []float64{1000}, entropies: []float64{0.1}}
	s, err := NewServer(ex, satisfaction.ImageTagging(), Config{
		Workers: 1, ManualFlush: true, Clock: clk.now, RejectUnmeetable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	s.SetBusyUntil(epoch().Add(time.Hour))
	if _, err := s.Submit(); err != nil {
		t.Fatalf("background task rejected: %v", err)
	}
}
