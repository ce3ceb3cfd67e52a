package tensor

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"
)

// The tile autotuner is the host-side mirror of the paper's offline
// compiler: where P-CNN probes candidate SGEMM tile shapes per layer and
// GPU microarchitecture, this probes candidate (MC, KC, MR×NR) blockings
// of the blocked backend on the host's actual cache hierarchy. Winners
// are cached in-process per (shape class, workers) and optionally
// persisted to a JSON cache file, so a serving daemon pays the probe cost
// once per deployment rather than once per process.
//
// Knobs (read by the default engine at init):
//
//	PCNN_GEMM_TUNE        "1"/"on" probes lazily at first use of each
//	                      shape class; default off (DefaultTile).
//	PCNN_GEMM_TILE        explicit MCxKCxMRxNR override, e.g. 128x256x8x4
//	                      (disables tuning — an override is a decision).
//	PCNN_GEMM_TUNE_CACHE  JSON cache file to load at init and rewrite
//	                      after each probe.

// ShapeClass buckets GEMM operand sizes so one probed winner serves every
// nearby layer shape: each of M, K, N is rounded up to a power of two,
// and the worker count rides along because the best MC shrinks as blocks
// are sharded.
type ShapeClass struct {
	M, K, N int // power-of-two ceilings of the GEMM dims
	Workers int
}

// ClassifyShape maps a concrete (m, k, n, workers) GEMM onto its tuning
// class.
func ClassifyShape(m, k, n, workers int) ShapeClass {
	return ShapeClass{M: pow2Ceil(m), K: pow2Ceil(k), N: pow2Ceil(n), Workers: workers}
}

func pow2Ceil(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// tileCandidates is the probe grid: every built-in micro-kernel crossed
// with L2-scale MC and L1-scale KC choices. 4×3×3 = 36 candidates; each
// probe is clipped to probeM/K/N, so a full grid costs well under a
// second. Multi-worker probes add MC=32 — smaller blocks make more work
// items, which is what lets a sharded GEMM balance across the pool — so
// the grid has a workers dimension just as the shape class does.
func tileCandidates(workers int) []TileConfig {
	mcs := []int{64, 128, 256}
	if workers > 1 {
		mcs = []int{32, 64, 128, 256}
	}
	var cands []TileConfig
	for _, mk := range MicroKernels() {
		for _, mc := range mcs {
			for _, kc := range []int{128, 256, 512} {
				cands = append(cands, TileConfig{MC: mc, KC: kc, MR: mk[0], NR: mk[1]})
			}
		}
	}
	return cands
}

// Probe dimension caps: large layer GEMMs are clipped before timing so a
// probe measures cache behaviour, not wall-clock patience. Relative
// ranking of tiles is stable under the clip because all candidates see
// the same working set.
const (
	probeM = 192
	probeK = 1536
	probeN = 1024
)

// tuner is the process-wide tile cache. Probing takes the mutex for the
// whole measurement, serialising concurrent first-touches of the same
// class (the second caller finds the cache filled).
type tuner struct {
	mu    sync.Mutex
	cache map[ShapeClass]TileConfig
	path  string // JSON persistence; "" = in-process only
}

var globalTuner = &tuner{cache: map[ShapeClass]TileConfig{}}

// tileCacheFile is the JSON shape of the persisted cache.
type tileCacheFile struct {
	Version int              `json:"version"`
	Entries []tileCacheEntry `json:"entries"`
}

type tileCacheEntry struct {
	M       int `json:"m"`
	K       int `json:"k"`
	N       int `json:"n"`
	Workers int `json:"workers"`
	MC      int `json:"mc"`
	KC      int `json:"kc"`
	MR      int `json:"mr"`
	NR      int `json:"nr"`
}

// SetTuneCachePath points the process-wide tuner at a JSON cache file,
// loading any valid entries already there. An empty path disables
// persistence.
func SetTuneCachePath(path string) error {
	globalTuner.mu.Lock()
	defer globalTuner.mu.Unlock()
	globalTuner.path = path
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var f tileCacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("tensor: tune cache %s: %w", path, err)
	}
	for _, e := range f.Entries {
		t := TileConfig{MC: e.MC, KC: e.KC, MR: e.MR, NR: e.NR}
		if t.Validate() != nil {
			continue // stale entry from a build with different kernels
		}
		globalTuner.cache[ShapeClass{M: e.M, K: e.K, N: e.N, Workers: e.Workers}] = t
	}
	return nil
}

// persistLocked rewrites the cache file; callers hold the mutex.
func (tu *tuner) persistLocked() {
	if tu.path == "" {
		return
	}
	f := tileCacheFile{Version: 1}
	for cl, t := range tu.cache {
		f.Entries = append(f.Entries, tileCacheEntry{
			M: cl.M, K: cl.K, N: cl.N, Workers: cl.Workers,
			MC: t.MC, KC: t.KC, MR: t.MR, NR: t.NR,
		})
	}
	sort.Slice(f.Entries, func(i, j int) bool {
		a, b := f.Entries[i], f.Entries[j]
		if a.M != b.M {
			return a.M < b.M
		}
		if a.K != b.K {
			return a.K < b.K
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.Workers < b.Workers
	})
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(tu.path, append(data, '\n'), 0o644)
}

// lookup returns the cached winner for a class.
func (tu *tuner) lookup(cl ShapeClass) (TileConfig, bool) {
	tu.mu.Lock()
	defer tu.mu.Unlock()
	t, ok := tu.cache[cl]
	return t, ok
}

// tune probes the candidate grid on a representative of the class and
// caches (and persists) the winner. Concurrent callers for the same class
// serialise on the mutex; the losers find the cache filled and skip the
// probe.
func (tu *tuner) tune(cl ShapeClass, m, k, n int, pool *workerPool) TileConfig {
	tu.mu.Lock()
	defer tu.mu.Unlock()
	if t, ok := tu.cache[cl]; ok {
		return t
	}
	t := probeTiles(m, k, n, pool, cl.Workers)
	tu.cache[cl] = t
	tu.persistLocked()
	return t
}

// probeTiles times every candidate on the (clipped) shape through the
// same execution path the engine will use — serial for a single worker,
// sharded across the pool otherwise — and returns the fastest, so a
// multi-worker class is ranked on its sharded behaviour (dispatch
// overhead and all) rather than on serial cache behaviour alone.
func probeTiles(m, k, n int, pool *workerPool, workers int) TileConfig {
	parallel := workers > 1 && pool != nil
	if m > probeM {
		m = probeM
	}
	if k > probeK {
		k = probeK
	}
	if n > probeN {
		n = probeN
	}
	if m < 1 {
		m = 1
	}
	if k < 1 {
		k = 1
	}
	if n < 1 {
		n = 1
	}
	a, b, c := GetScratch(m*k), GetScratch(k*n), GetScratch(m*n)
	defer PutScratch(a)
	defer PutScratch(b)
	defer PutScratch(c)
	fillProbe(a)
	fillProbe(b)

	best := DefaultTile
	bestNS := int64(1<<63 - 1)
	for _, cand := range tileCandidates(workers) {
		// One warm-up pass (packs the panels, faults the buffers), then
		// best-of-two timed passes.
		blockedGEMM(c, a, b, m, n, k, false, false, cand, pool, parallel)
		var elapsed int64 = 1<<63 - 1
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			blockedGEMM(c, a, b, m, n, k, false, false, cand, pool, parallel)
			if ns := time.Since(start).Nanoseconds(); ns < elapsed {
				elapsed = ns
			}
		}
		if elapsed < bestNS {
			bestNS = elapsed
			best = cand
		}
	}
	return best
}

// fillProbe writes a cheap deterministic non-zero pattern; probe inputs
// only need to defeat the naive kernel's zero-skip, not look like data.
func fillProbe(s []float32) {
	for i := range s {
		s[i] = float32(i%13) - 6
	}
}

// TuneShape probes the tile grid for one representative GEMM shape (as
// the offline compiler does per layer) and returns the winner, caching it
// for every shape in the same class. Safe for concurrent use.
func (e *Engine) TuneShape(m, k, n int) TileConfig {
	cl := ClassifyShape(m, k, n, e.pool.workers())
	return globalTuner.tune(cl, m, k, n, e.pool)
}

// SetAutotune enables (or disables) lazy per-shape-class probing: with it
// on, the first blocked GEMM of each class pays a one-time probe and
// every later GEMM in the class uses the cached winner.
func (e *Engine) SetAutotune(on bool) { e.autotune.Store(on) }

// Autotune reports whether lazy probing is enabled.
func (e *Engine) Autotune() bool { return e.autotune.Load() }

// SetTile pins the engine's blocked tiling, overriding both DefaultTile
// and the autotuner. It rejects tiles without a built-in micro-kernel.
func (e *Engine) SetTile(t TileConfig) error {
	if err := t.Validate(); err != nil {
		return err
	}
	e.tile.Store(&t)
	return nil
}

// Tile returns the pinned tile, or DefaultTile when none is set.
func (e *Engine) Tile() TileConfig {
	if t := e.tile.Load(); t != nil {
		return *t
	}
	return DefaultTile
}

// ActiveTile returns the tile used by the engine's most recent blocked
// GEMM — the kernel that actually served traffic, which the serving
// metrics export — falling back to the configured tile before any
// blocked GEMM has run.
func (e *Engine) ActiveTile() TileConfig {
	if t := e.lastTile.Load(); t != nil {
		return *t
	}
	return e.Tile()
}

// tileFor resolves the tile for one blocked GEMM: an explicit SetTile
// wins; with autotuning on, the shape class's cached (or freshly probed)
// winner; otherwise DefaultTile.
func (e *Engine) tileFor(m, k, n int) TileConfig {
	if t := e.tile.Load(); t != nil {
		return *t
	}
	if e.autotune.Load() {
		cl := ClassifyShape(m, k, n, e.pool.workers())
		if t, ok := globalTuner.lookup(cl); ok {
			return t
		}
		return globalTuner.tune(cl, m, k, n, e.pool)
	}
	return DefaultTile
}
