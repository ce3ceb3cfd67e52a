// Package obs is P-CNN's dependency-free observability core: a registry
// of counters, gauges and fixed-bucket histograms with an atomic hot path
// and Prometheus text-format export, plus per-request lifecycle traces and
// a windowed rate estimator. The serving stack (internal/serve, cmd/pcnnd)
// threads these through every request; nothing here imports anything
// beyond the standard library, so every package in the tree may depend on
// it.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "level", Value: "2"}.
type Label struct{ Key, Value string }

// Counter is a monotonically increasing metric. The zero value is ready;
// all methods are lock-free and safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that may go up and down. The zero value is
// ready; all methods are lock-free and safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Observe is lock-free
// (one atomic add per bucket plus a CAS loop for the sum) and safe for
// concurrent use with export.
type Histogram struct {
	upper   []float64 // sorted bucket upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance of a metric family.
type series struct {
	labels string // pre-rendered {k="v",...} or ""
	metric any    // *Counter, *Gauge, *Histogram or func() float64
}

// family groups every series sharing a metric name.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration takes a mutex; the metrics themselves
// are atomic. A nil *Registry is inert: registration returns usable
// metrics that are simply never exported.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// register adds (or finds) the series under name/labels, enforcing kind
// consistency within a family.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, make func() any) any {
	if r == nil {
		return make()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	for _, s := range f.series {
		if s.labels == ls {
			return s.metric
		}
	}
	m := make()
	f.series = append(f.series, &series{labels: ls, metric: m})
	return m
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func() any { return fn })
}

// CounterFunc registers a counter whose value is read at export time —
// the bridge for subsystems that already keep their own tallies.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func() any { return fn })
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	m := r.register(name, help, kindHistogram, labels, func() any {
		up := append([]float64(nil), buckets...)
		sort.Float64s(up)
		return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up)+1)}
	})
	return m.(*Histogram)
}

// WritePrometheus renders every metric in text exposition format (0.0.4),
// families sorted by name and series by label signature, so output is
// deterministic for golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		ss := append([]*series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			writeSeries(bw, f.name, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, name string, s *series) {
	switch m := s.metric.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s%s %s\n", name, s.labels, fmtFloat(float64(m.Value())))
	case *Gauge:
		fmt.Fprintf(w, "%s%s %s\n", name, s.labels, fmtFloat(m.Value()))
	case func() float64:
		fmt.Fprintf(w, "%s%s %s\n", name, s.labels, fmtFloat(m()))
	case *Histogram:
		var run uint64
		for i, up := range m.upper {
			run += m.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", fmtFloat(up)), run)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.labels, "le", "+Inf"), m.Count())
		fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, fmtFloat(m.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, m.Count())
	}
}

// renderLabels formats {k="v",...}; an empty set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel appends one more label to a pre-rendered label set.
func withLabel(labels, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// fmtFloat renders a float the way Prometheus does: shortest form, +Inf
// spelled out.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
