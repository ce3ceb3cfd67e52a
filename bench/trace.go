package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent indexes the tracer's buffer
// (-1 for a root); Req is shared by the spans of one request; Aux carries
// what the recording site knows and the linker needs (queue wait, batch
// size, which daemon and model).
type span struct {
	Name   string
	Parent int32
	Req    uint64
	Start  int64
	End    int64
	Aux    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the benchmark's span buffer: preallocated before the traced
// window, filled lock-free by the wrappers around the program's public
// calls, written out once at exit. When full it drops and counts.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// at converts a wall-clock instant to the tracer's nanosecond scale.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// add records a finished span (start and end on the tracer's scale) and
// returns its index, or -1 when the buffer is full.
func (t *tracer) add(name string, parent int32, req uint64, start, end, aux int64) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Parent: parent, Req: req, Start: start, End: end, Aux: aux}
	return int32(i)
}

// begin opens a span whose children will name it as parent; finish closes it.
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	now := t.at(time.Now())
	return t.add(name, parent, req, now, now, 0)
}

func (t *tracer) finish(i int32) {
	if i >= 0 {
		t.spans[i].End = t.at(time.Now())
	}
}

// recorded returns the filled part of the buffer.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children count once; a child is
// clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durations collects the durations (ns) of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no samples. It sorts v in place.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v, linearly interpolated between the
// two nearest order statistics, or 0 for no samples. It sorts v in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (v[i+1]-v[i])*(pos-float64(i))
}

// traceFileSpans bounds the span file: whole request trees are written, in
// buffer order, until this many spans are out. Metrics use every span.
const traceFileSpans = 100_000

// writeTrace writes the header and the first traceFileSpans spans, each
// with its self time, to path.
func writeTrace(path string, hdr header, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	hj, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return err
	}
	self := selfTimes(spans)
	// A child is recorded before or after its parent depending on which
	// side of a boundary finished first, so keep a span when its root is
	// within the cut, not when its own index is.
	root := make([]int32, len(spans))
	for i := range spans {
		r := int32(i)
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		root[i] = r
	}
	fmt.Fprintf(w, "{\"header\":%s,\"spans_recorded\":%d,\"spans_dropped\":%d,\"spans\":[", hj, len(spans), dropped)
	written := 0
	for i, s := range spans {
		if root[i] >= traceFileSpans {
			continue
		}
		if written > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}",
			i, s.Name, s.Parent, s.Req, s.Start, s.End, self[i])
		written++
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
