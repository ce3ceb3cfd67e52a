package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Exposition merges several registries into one Prometheus text-format
// document, stamping every series from a part with that part's extra
// labels. The fleet uses it to export N replicas' existing pcnn_serve_*
// metric sets side by side under replica/model labels, with each family's
// HELP/TYPE header emitted exactly once; Registry.WritePrometheus is the
// exposition of one registry with no extra labels.
type Exposition struct {
	parts []expoPart
}

type expoPart struct {
	reg    *Registry
	labels string // pre-rendered {k="v",...} or ""
}

// NewExposition returns an empty exposition.
func NewExposition() *Exposition { return &Exposition{} }

// Add appends one registry whose series will carry the extra labels. A nil
// registry is skipped. Order matters only for resolving duplicate HELP
// strings (first added wins).
func (e *Exposition) Add(reg *Registry, labels ...Label) *Exposition {
	if reg != nil {
		e.parts = append(e.parts, expoPart{reg: reg, labels: renderLabels(labels)})
	}
	return e
}

// mergedSeries is one part's series re-labelled for the merged document.
type mergedSeries struct {
	labels string
	metric any
}

// mergedFamily accumulates every part's series sharing a metric name.
type mergedFamily struct {
	name, help string
	kind       metricKind
	series     []mergedSeries
}

// WritePrometheus renders the merged exposition. Families are sorted by
// name and series by their full label signature, so output is
// deterministic. Registering the same family name with different kinds
// across parts is a caller bug and returns an error rather than emitting
// an unparseable document.
func (e *Exposition) WritePrometheus(w io.Writer) error {
	merged := map[string]*mergedFamily{}
	for _, p := range e.parts {
		p.reg.mu.Lock()
		for name, f := range p.reg.families {
			mf := merged[name]
			if mf == nil {
				mf = &mergedFamily{name: name, help: f.help, kind: f.kind}
				merged[name] = mf
			}
			if mf.kind != f.kind {
				p.reg.mu.Unlock()
				return fmt.Errorf("obs: metric %s merged as both %s and %s", name, mf.kind, f.kind)
			}
			for _, s := range f.series {
				mf.series = append(mf.series, mergedSeries{
					labels: mergeLabels(s.labels, p.labels),
					metric: s.metric,
				})
			}
		}
		p.reg.mu.Unlock()
	}

	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := merged[n]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for i := range f.series {
			writeSeries(bw, f.name, &series{labels: f.series[i].labels, metric: f.series[i].metric})
		}
	}
	return bw.Flush()
}

// mergeLabels concatenates two pre-rendered label sets; either may be "".
func mergeLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a[:len(a)-1] + "," + b[1:]
	}
}
