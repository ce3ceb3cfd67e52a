package workload

import (
	"sync"
	"time"
)

// VirtualClock is a mutex-guarded settable time source. Deterministic
// drivers (the scenario engine, the fleet soak, pcnnd's bench sweep)
// inject Now into serve.Config.Clock and advance the clock themselves,
// which is what makes whole-run queueing, batching and latency
// bit-reproducible.
type VirtualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewVirtualClock starts a clock at t.
func NewVirtualClock(t time.Time) *VirtualClock { return &VirtualClock{t: t} }

// Now reads the clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Set moves the clock to t.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// Epoch is the fixed instant every deterministic driver's virtual clock
// starts at. Nothing downstream depends on the calendar value — only on
// differences — but fixing it keeps whole-run state (trace timestamps,
// skewed stamps) and the committed BENCH_*.json files identical across
// processes and machines.
func Epoch() time.Time { return time.Unix(1_700_000_000, 0).UTC() }

// Event is one arrival in a merged multi-stream schedule: the offset from
// the schedule's origin and the index of the stream it belongs to.
type Event struct {
	At     time.Duration
	Stream int
}

// ScheduleStream lazily merges multi-stream arrivals — counts[i] drawn
// from arrivals[i], each stream's first arrival landing after its first
// gap — into one global timeline ordered by time with the stream index
// breaking ties: the open-loop trace a fleet router serves. It holds
// O(streams) state instead of the whole trace, which is how
// million-request soaks iterate a schedule with flat memory. Arrival gaps
// are non-negative, so each stream's events are non-decreasing in time and
// a head-per-stream merge reproduces the globally sorted order (the tests
// pin it against a materialize-and-sort oracle). The result is fully
// deterministic given deterministic arrival processes.
type ScheduleStream struct {
	arrs   []Arrivals
	remain []int
	heads  []Event
	ready  []bool
	total  int
}

// NewScheduleStream builds the merge over counts[i] arrivals drawn from
// arrivals[i]. The arrival processes are consumed as the stream advances;
// hand each ScheduleStream its own freshly seeded processes.
func NewScheduleStream(arrivals []Arrivals, counts []int) *ScheduleStream {
	s := &ScheduleStream{
		arrs:   arrivals,
		remain: make([]int, len(arrivals)),
		heads:  make([]Event, len(arrivals)),
		ready:  make([]bool, len(arrivals)),
	}
	for i := range arrivals {
		n := 0
		if i < len(counts) {
			n = counts[i]
		}
		if n > 0 {
			s.total += n
		}
		s.remain[i] = n
		s.heads[i].Stream = i
		s.advance(i)
	}
	return s
}

// advance draws stream i's next arrival into its head slot.
func (s *ScheduleStream) advance(i int) {
	if s.remain[i] <= 0 {
		s.ready[i] = false
		return
	}
	s.remain[i]--
	s.heads[i].At += s.arrs[i].Next()
	s.ready[i] = true
}

// Total returns how many events the stream will emit in all.
func (s *ScheduleStream) Total() int { return s.total }

// Next returns the globally next event, false once the trace is spent.
func (s *ScheduleStream) Next() (Event, bool) {
	best := -1
	for i := range s.heads {
		if !s.ready[i] {
			continue
		}
		// Strict < keeps the lowest ready stream index on At ties.
		if best < 0 || s.heads[i].At < s.heads[best].At {
			best = i
		}
	}
	if best < 0 {
		return Event{}, false
	}
	e := s.heads[best]
	s.advance(best)
	return e, true
}
