package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Oracle-vs-production GEMM benchmarks at the shapes the CNN layers actually
// lower to (im2col GEMMs of AlexNet and VGG-16 conv layers, plus an FC
// tail). Results are recorded in BENCH_gemm.json at the repo root; the
// acceptance shape is VGG conv2_1 (M=64, K=4608, N=3025).
var gemmShapes = []struct {
	name    string
	m, k, n int
}{
	{"AlexNet_conv1_M96_K363_N3025", 96, 363, 3025},
	{"AlexNet_conv2_M256_K2400_N729", 256, 2400, 729},
	{"VGG_conv2_1_M64_K4608_N3025", 64, 4608, 3025},
	{"VGG_conv4_1_M512_K2304_N196", 512, 2304, 196},
	{"FC_M32_K4096_N1000", 32, 4096, 1000},
}

func benchGEMM(b *testing.B, eng *Engine, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, m, k)
	bb := randTensor(rng, k, n)
	c := New(m, n)
	b.SetBytes(int64(GEMMFlops(m, n, k))) // reported as "MB/s" = MFLOP/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatMulInto(c, a, bb)
	}
}

func BenchmarkGEMMSerial(b *testing.B) {
	eng := NewEngine(Serial, 1)
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) { benchGEMM(b, eng, s.m, s.k, s.n) })
	}
}

// BenchmarkGEMMBlocked runs the cache-blocked packed backend serially on
// the recorded shapes with the host default tile — the acceptance
// comparison against BenchmarkGEMMSerial in BENCH_gemm.json.
func BenchmarkGEMMBlocked(b *testing.B) {
	eng := NewEngine(Blocked, 1)
	b.Run(fmt.Sprintf("tile=%s", DefaultTile), func(b *testing.B) {
		for _, s := range gemmShapes {
			b.Run(s.name, func(b *testing.B) { benchGEMM(b, eng, s.m, s.k, s.n) })
		}
	})
}

// BenchmarkGEMMBlockedParallel runs the blocked backend with the shared
// worker pool, so its jc/ic macro-loops shard (MC block × NR panel group)
// work items across every core; compare against BenchmarkGEMMBlocked for
// the macro-loop sharding speedup (recorded in BENCH_gemm.json).
func BenchmarkGEMMBlockedParallel(b *testing.B) {
	eng := NewEngine(Blocked, 0)
	b.Run(fmt.Sprintf("tile=%s/workers=%d", DefaultTile, eng.Workers()), func(b *testing.B) {
		for _, s := range gemmShapes {
			b.Run(s.name, func(b *testing.B) { benchGEMM(b, eng, s.m, s.k, s.n) })
		}
	})
}

// BenchmarkGEMMInt8 runs the int8 forward path (per-row/per-column
// symmetric quantization around the scalar int32 row kernel) on the
// recorded shapes. It measures the host cost of quantized numerics, not
// a host speedup: with no SIMD int8 kernel the scalar path cannot beat
// the AVX2 blocked fp32 kernel here; reduced precision is an
// accuracy-study axis, not a serving operating point (see BENCH_gemm.json).
func BenchmarkGEMMInt8(b *testing.B) {
	eng := NewEngine(Blocked, 1)
	eng.SetPrecision(Int8)
	b.Run(fmt.Sprintf("tile=%s", DefaultTile), func(b *testing.B) {
		for _, s := range gemmShapes {
			b.Run(s.name, func(b *testing.B) { benchGEMM(b, eng, s.m, s.k, s.n) })
		}
	})
}

// BenchmarkGEMMDefault runs the engine every nn layer gets when nothing is
// configured — Auto on the shared pool — which must track
// BenchmarkGEMMBlockedParallel: "auto" and "blocked" are one path.
func BenchmarkGEMMDefault(b *testing.B) {
	eng := NewEngine(Auto, 0)
	b.Run(fmt.Sprintf("tile=%s/workers=%d", DefaultTile, eng.Workers()), func(b *testing.B) {
		for _, s := range gemmShapes {
			b.Run(s.name, func(b *testing.B) { benchGEMM(b, eng, s.m, s.k, s.n) })
		}
	})
}

// BenchmarkGEMMTransForms covers the backward-pass variants on the
// acceptance shape, comparing fresh-allocate vs Into-with-reuse.
func BenchmarkGEMMTransForms(b *testing.B) {
	eng := NewEngine(Serial, 1)
	rng := rand.New(rand.NewSource(2))
	g := randTensor(rng, 64, 3025)      // outC × planeOut
	cols := randTensor(rng, 4608, 3025) // fanIn × planeOut
	b.Run("TransB_alloc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.MatMulTransB(g, cols)
		}
	})
	b.Run("TransB_into", func(b *testing.B) {
		dW := New(64, 4608)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.MatMulTransBInto(dW, g, cols)
		}
	})
}

// scaledConvShapes are the per-sample GEMMs AlexNet-S lowers to (M = filter
// count, K = fanIn, N = output positions): unperforated, and at the served
// base level 9 of the benchmark's tuning table, where CONV1/2/4 compute
// 7×7 of 16×16, 5×5 of 8×8 and 3×3 of 4×4.
var scaledConvShapes = []struct {
	name    string
	m, k, n int
}{
	{"full_CONV1_M12_K27_N256", 12, 27, 256},
	{"full_CONV2_M24_K108_N64", 24, 108, 64},
	{"full_CONV3_M32_K216_N16", 32, 216, 16},
	{"full_CONV4_M32_K288_N16", 32, 288, 16},
	{"full_CONV5_M24_K288_N16", 24, 288, 16},
	{"level9_CONV1_M12_K27_N49", 12, 27, 49},
	{"level9_CONV2_M24_K108_N25", 24, 108, 25},
	{"level9_CONV3_M32_K216_N16", 32, 216, 16},
	{"level9_CONV4_M32_K288_N9", 32, 288, 9},
	{"level9_CONV5_M24_K288_N16", 24, 288, 16},
}

// BenchmarkGEMMFolded is the batching argument on the host: a batch of 32
// as 32 per-sample GEMMs (how nn.Conv lowered inference before the fold —
// pack-A redone per sample, N = 9 padded to two NR panels) against one
// GEMM with N = 32·nPos. One op is the whole batch either way.
func BenchmarkGEMMFolded(b *testing.B) {
	const batch = 32
	eng := NewEngine(Blocked, 1)
	rng := rand.New(rand.NewSource(1))
	for _, s := range scaledConvShapes {
		a := randTensor(rng, s.m, s.k)
		one, all := randTensor(rng, s.k, s.n), randTensor(rng, s.k, batch*s.n)
		cOne, cAll := New(s.m, s.n), New(s.m, batch*s.n)
		b.Run(s.name+"/per_sample", func(b *testing.B) {
			b.SetBytes(batch * int64(GEMMFlops(s.m, s.n, s.k)))
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					eng.MatMulInto(cOne, a, one)
				}
			}
		})
		b.Run(s.name+"/folded", func(b *testing.B) {
			b.SetBytes(batch * int64(GEMMFlops(s.m, s.n, s.k)))
			for i := 0; i < b.N; i++ {
				eng.MatMulInto(cAll, a, all)
			}
		})
	}
}
