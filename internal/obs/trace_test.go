package obs

import (
	"testing"
	"time"
)

// TestTraceMarks: stages appear in order with non-negative offsets and
// durations, and AtMS is monotone.
func TestTraceMarks(t *testing.T) {
	tr := NewTrace(42, nil)
	tr.Mark("submit")
	time.Sleep(time.Millisecond)
	tr.Mark("execute")
	tr.Mark("resolve")
	if tr.ID != 42 || len(tr.Stages) != 3 {
		t.Fatalf("trace = %+v", tr)
	}
	prev := -1.0
	for _, s := range tr.Stages {
		if s.AtMS < prev || s.DurMS < 0 {
			t.Errorf("stage %s out of order: at %v dur %v (prev %v)", s.Name, s.AtMS, s.DurMS, prev)
		}
		prev = s.AtMS
	}
	if tr.Stages[1].DurMS <= 0 {
		t.Errorf("execute stage duration %v, want > 0 after 1ms sleep", tr.Stages[1].DurMS)
	}
	if tr.TotalMS() < tr.Stages[2].AtMS {
		t.Errorf("total %v < last mark %v", tr.TotalMS(), tr.Stages[2].AtMS)
	}
}

// TestTraceRingBounds: adding far past the capacity keeps exactly the
// newest `cap` traces, newest first.
func TestTraceRingBounds(t *testing.T) {
	const capacity = 100
	r := NewTraceRing(capacity)
	for i := 1; i <= 300; i++ {
		r.Add(&Trace{ID: uint64(i)})
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("len = %d, want %d", got, capacity)
	}
	recent := r.Recent()
	if len(recent) != capacity {
		t.Fatalf("recent len = %d, want %d", len(recent), capacity)
	}
	for i, tr := range recent {
		if want := uint64(300 - i); tr.ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
}

// TestTraceRingPartial: before wrap-around, only what was added comes
// back.
func TestTraceRingPartial(t *testing.T) {
	r := NewTraceRing(8)
	r.Add(&Trace{ID: 1})
	r.Add(&Trace{ID: 2})
	recent := r.Recent()
	if len(recent) != 2 || recent[0].ID != 2 || recent[1].ID != 1 {
		t.Fatalf("recent = %+v", recent)
	}
}
