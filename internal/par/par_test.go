package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce: every index in [0, n) runs exactly once, at
// most GOMAXPROCS at a time, for n below, at and above the goroutine
// count.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		runs := make([]atomic.Int32, n)
		var live, peak atomic.Int32
		err := Each(n, func(i int) error {
			l := live.Add(1)
			for p := peak.Load(); l > p && !peak.CompareAndSwap(p, l); p = peak.Load() {
			}
			runs[i].Add(1)
			runtime.Gosched()
			live.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
		if p := int(peak.Load()); p > runtime.GOMAXPROCS(0) {
			t.Fatalf("n=%d: %d units ran at once, GOMAXPROCS is %d", n, p, runtime.GOMAXPROCS(0))
		}
	}
}

// TestEachReturnsLowestIndexError: with several failing units the error
// returned is the lowest-index one, whichever fails first in time, and no
// index is claimed after a failure beyond those already running.
func TestEachReturnsLowestIndexError(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		var ran atomic.Int32
		err := Each(64, func(i int) error {
			ran.Add(1)
			if i == 5 || i == 9 || i == 30 {
				return fmt.Errorf("unit %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 5" {
			t.Fatalf("Each returned %v, want unit 5", err)
		}
		if r := int(ran.Load()); r >= 64 {
			t.Fatalf("all %d units ran after unit 5 failed", r)
		}
	}
	sentinel := errors.New("boom")
	if err := Each(1, func(int) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("single failing unit: got %v", err)
	}
}
