package obs

import (
	"sync"
	"time"
)

// Stage is one step of a request's lifecycle. AtMS is the offset from the
// trace's start at which the stage *completed*; DurMS is how long the
// stage took (the gap since the previous mark).
type Stage struct {
	Name  string  `json:"name"`
	AtMS  float64 `json:"at_ms"`
	DurMS float64 `json:"dur_ms"`
}

// Trace records one request's submit → coalesce → escalate → execute →
// resolve lifecycle. A trace is built by exactly one goroutine at a time
// (ownership passes along the pipeline with the request, and channel
// hand-offs order the marks), so Mark takes no lock.
type Trace struct {
	ID      uint64    `json:"id"`
	Start   time.Time `json:"start"`
	Batch   int       `json:"batch,omitempty"`
	Level   int       `json:"level,omitempty"`
	Demoted bool      `json:"demoted,omitempty"`
	Err     string    `json:"err,omitempty"`
	Stages  []Stage   `json:"stages"`

	now  func() time.Time
	last time.Time
}

// traceStages is how many marks a serving request's trace takes: submit,
// coalesce, escalate, execute, resolve.
const traceStages = 5

// NewTrace starts a trace at clock's current instant; every Mark reads the
// same clock, so a server on an injected (virtual) clock records spans in
// that clock's time. A nil clock means time.Now. The trace is a value so
// that its owner can hold it inline; room for a serving request's stages
// is allocated up front.
func NewTrace(id uint64, clock func() time.Time) Trace {
	if clock == nil {
		clock = time.Now
	}
	now := clock()
	return Trace{ID: id, Start: now, Stages: make([]Stage, 0, traceStages), now: clock, last: now}
}

// Mark closes the current stage: it appends a Stage whose duration is the
// time since the previous mark (or since Start for the first).
func (t *Trace) Mark(name string) {
	now := t.now()
	t.Stages = append(t.Stages, Stage{
		Name:  name,
		AtMS:  durMS(now.Sub(t.Start)),
		DurMS: durMS(now.Sub(t.last)),
	})
	t.last = now
}

// TotalMS is the span from Start to the last mark.
func (t *Trace) TotalMS() float64 { return durMS(t.last.Sub(t.Start)) }

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TraceRing is a bounded in-memory ring of recent traces: adding past the
// capacity overwrites the oldest entry. Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	full bool
}

// NewTraceRing holds the most recent n traces (n < 1 is clamped to 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]Trace, n)}
}

// Add stores a copy of the finished trace.
func (r *TraceRing) Add(t *Trace) {
	r.mu.Lock()
	r.buf[r.next] = *t
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Len reports how many traces are held (≤ capacity).
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Recent returns the held traces, newest first.
func (r *TraceRing) Recent() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
