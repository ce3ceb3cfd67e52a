package workload

import (
	"sort"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
)

// mkStreams builds the soak's mixed arrival shape: periodic real-time
// plus Poisson interactive/background streams.
func mkStreams(seed int64) ([]Arrivals, []int) {
	tasks := []satisfaction.Task{
		satisfaction.VideoSurveillance(30),
		satisfaction.AgeDetection(),
		satisfaction.ImageTagging(),
	}
	var arrs []Arrivals
	var counts []int
	for i, task := range tasks {
		for c := 0; c < 3; c++ {
			s := i*3 + c
			arrs = append(arrs, ArrivalsForTask(task, 40, seed+int64(s+1)*7919))
			counts = append(counts, 100+c)
		}
	}
	return arrs, counts
}

// buildSchedule is the merge oracle: it materializes every stream's
// arrivals and stable-sorts them by time, stream index breaking ties.
func buildSchedule(arrivals []Arrivals, counts []int) []Event {
	var events []Event
	for s, arr := range arrivals {
		var at time.Duration
		for i := 0; i < counts[s]; i++ {
			at += arr.Next()
			events = append(events, Event{At: at, Stream: s})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Stream < events[j].Stream
	})
	return events
}

// TestScheduleStreamMatchesBuildSchedule pins the lazy merge against the
// materialize-and-sort oracle event for event: the million-request soak
// consumes ScheduleStream assuming exactly that order.
func TestScheduleStreamMatchesBuildSchedule(t *testing.T) {
	arrsA, counts := mkStreams(42)
	arrsB, _ := mkStreams(42)
	want := buildSchedule(arrsA, counts)
	s := NewScheduleStream(arrsB, counts)
	if s.Total() != len(want) {
		t.Fatalf("Total = %d, want %d", s.Total(), len(want))
	}
	for i, w := range want {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream dried up at %d of %d", i, len(want))
		}
		if got != w {
			t.Fatalf("event %d = %+v, want %+v", i, got, w)
		}
	}
	if e, ok := s.Next(); ok {
		t.Fatalf("stream overran: extra event %+v", e)
	}
}

// TestScheduleStreamTieBreak pins the comparator edge: simultaneous
// arrivals emit in stream-index order, exactly like the stable sort.
func TestScheduleStreamTieBreak(t *testing.T) {
	// Three identical periodic streams collide at every tick.
	arrs := []Arrivals{
		NewPeriodicArrivals(100),
		NewPeriodicArrivals(100),
		NewPeriodicArrivals(100),
	}
	counts := []int{3, 3, 3}
	want := buildSchedule([]Arrivals{
		NewPeriodicArrivals(100), NewPeriodicArrivals(100), NewPeriodicArrivals(100),
	}, counts)
	s := NewScheduleStream(arrs, counts)
	for i, w := range want {
		got, ok := s.Next()
		if !ok || got != w {
			t.Fatalf("event %d = (%+v, %v), want %+v", i, got, ok, w)
		}
	}
}

// TestScheduleStreamEmptyAndShortCounts covers zero-count streams and a
// counts slice shorter than the arrivals slice.
func TestScheduleStreamEmptyAndShortCounts(t *testing.T) {
	arrs := []Arrivals{
		NewPeriodicArrivals(10),
		NewPeriodicArrivals(20),
		NewPeriodicArrivals(30),
	}
	s := NewScheduleStream(arrs, []int{0, 2})
	if s.Total() != 2 {
		t.Fatalf("Total = %d, want 2", s.Total())
	}
	var got []Event
	for {
		e, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, e)
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d events, want 2", len(got))
	}
	for _, e := range got {
		if e.Stream != 1 {
			t.Errorf("event from stream %d, want 1", e.Stream)
		}
	}
	if got[0].At != 50*time.Millisecond || got[1].At != 100*time.Millisecond {
		t.Errorf("periodic times = %v, %v", got[0].At, got[1].At)
	}
}
