package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSet reads the records -out appended to a file and groups the
// untraced ones' metric values by workload and metric name.
func loadSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Header.Trace {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s line %d: %s run at seed %d is not correct (%d of %d ops failed)",
				path, line, rec.Header.Workload, rec.Header.Seed, rec.Failed, rec.Attempted)
		}
		byMetric := set[rec.Header.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			set[rec.Header.Workload] = byMetric
		}
		for name, m := range rec.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so the
// spreads printed here are the ones the acceptance run computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareSets applies the manifest's bounds to two result sets: for every
// end-to-end metric × workload it prints both medians with their quartiles
// and how much worse B's median is than A's, and reports whether any is
// worse by more than its bound.
func compareSets(manifestPath, pathA, pathB string, out io.Writer) (regressed bool, err error) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return false, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return false, fmt.Errorf("%s: %w", manifestPath, err)
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-15s %-23s %12s %-27s %12s %-27s %8s %6s\n",
		"workload", "metric", "A median", "A [q1, q3] spread", "B median", "B [q1, q3] spread", "worse", "bound")
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-15s %-23s missing (A has %d runs, B has %d)\n", w.Name, m.Name, len(va), len(vb))
				regressed = true
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  REGRESSED"
				regressed = true
			}
			side := func(q1, q2, q3 float64) string {
				return fmt.Sprintf("[%.5g, %.5g] %.1f%%", q1, q3, 100*(q3-q1)/q2)
			}
			fmt.Fprintf(out, "%-15s %-23s %12.6g %-27s %12.6g %-27s %+7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, a2, side(a1, a2, a3), b2, side(b1, b2, b3), 100*worse, 100*m.Bound, mark)
		}
	}
	return regressed, nil
}
