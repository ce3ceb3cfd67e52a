package obs

import (
	"strings"
	"testing"
)

func TestExpositionMergesWithPartLabels(t *testing.T) {
	a := NewRegistry()
	a.Counter("pcnn_x_total", "X counter.").Add(1)
	a.Counter("pcnn_y_total", "Y counter.", Label{Key: "reason", Value: "q"}).Add(7)
	b := NewRegistry()
	b.Counter("pcnn_x_total", "X counter.").Add(3)

	var sb strings.Builder
	err := NewExposition().
		Add(a, Label{Key: "replica", Value: "n0"}).
		Add(b, Label{Key: "replica", Value: "n1"}).
		Add(nil, Label{Key: "replica", Value: "ghost"}). // nil parts are skipped
		WritePrometheus(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		`pcnn_x_total{replica="n0"} 1`,
		`pcnn_x_total{replica="n1"} 3`,
		// A series' own labels merge with the part labels.
		`pcnn_y_total{reason="q",replica="n0"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even when two parts share it.
	if n := strings.Count(out, "# HELP pcnn_x_total"); n != 1 {
		t.Errorf("HELP emitted %d times, want 1", n)
	}
	if n := strings.Count(out, "# TYPE pcnn_x_total counter"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
}

func TestExpositionKindConflict(t *testing.T) {
	a := NewRegistry()
	a.Counter("pcnn_z", "Z.").Add(1)
	b := NewRegistry()
	b.Gauge("pcnn_z", "Z.").Set(2)
	err := NewExposition().Add(a).Add(b).WritePrometheus(&strings.Builder{})
	if err == nil {
		t.Fatal("merging counter and gauge under one name should error")
	}
}

func TestExpositionDeterministic(t *testing.T) {
	a := NewRegistry()
	a.Counter("pcnn_b_total", "B.").Add(1)
	a.Gauge("pcnn_a", "A.").Set(4)
	b := NewRegistry()
	b.Counter("pcnn_b_total", "B.").Add(2)
	exp := NewExposition().
		Add(a, Label{Key: "replica", Value: "n1"}).
		Add(b, Label{Key: "replica", Value: "n0"})

	var first, second strings.Builder
	if err := exp.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	if err := exp.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", first.String(), second.String())
	}
	// Families sort by name, series by full label signature.
	out := first.String()
	if ai, bi := strings.Index(out, "pcnn_a"), strings.Index(out, "pcnn_b_total"); ai > bi {
		t.Error("families not sorted by name")
	}
	n0 := strings.Index(out, `pcnn_b_total{replica="n0"}`)
	n1 := strings.Index(out, `pcnn_b_total{replica="n1"}`)
	if n0 < 0 || n1 < 0 || n0 > n1 {
		t.Error("series not sorted by label signature within the family")
	}
}
