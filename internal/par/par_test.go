package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
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

// TestChunksSplitsContiguously: Chunks visits every index of [0, n)
// exactly once in at most parts contiguous chunks numbered from 0.
func TestChunksSplitsContiguously(t *testing.T) {
	const parts = 3
	for _, n := range []int{0, 1, 2, 5, 16} {
		seen := make([]int, n)
		var mu sync.Mutex
		chunks := map[int][2]int{}
		Chunks(n, parts, func(chunk, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			chunks[chunk] = [2]int{lo, hi}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
		next := 0
		for k := 0; k < len(chunks); k++ {
			r, ok := chunks[k]
			if !ok || r[0] != next || r[1] <= r[0] {
				t.Fatalf("n=%d: chunks %v are not contiguous and numbered from 0", n, chunks)
			}
			next = r[1]
		}
		if len(chunks) > parts {
			t.Fatalf("n=%d: %d chunks for %d parts", n, len(chunks), parts)
		}
	}
}

// TestChunksNested: a chunk may call Chunks itself — chunks are goroutines
// that exit when done, not tasks of a pool the chunk would wait on — and
// every index of both levels is visited exactly once. A conv backward's
// sample shards nest this way around their own sharded GEMMs. make race
// runs it at -cpu 1,2.
func TestChunksNested(t *testing.T) {
	const outer, inner, parts = 7, 5, 4
	var seen [outer][inner]atomic.Int32
	Chunks(outer, parts, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			Chunks(inner, parts, func(_, ilo, ihi int) {
				for j := ilo; j < ihi; j++ {
					seen[i][j].Add(1)
				}
			})
		}
	})
	for i := range seen {
		for j := range seen[i] {
			if c := seen[i][j].Load(); c != 1 {
				t.Fatalf("index (%d, %d) visited %d times", i, j, c)
			}
		}
	}
}
