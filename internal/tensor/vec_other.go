//go:build !amd64

package tensor

// Without an assembly path for this architecture (arm64 included: only
// the GEMM micro-kernel has a NEON twin) the elementwise kernels run
// their portable Go twins whole.

func reluSIMD(dst, src []float32) int { return 0 }

func maxRowsSIMD(dst, src []float32, rows, w, size, stride int) int { return 0 }

func pairMaxSIMD(dst, src []float32) int { return 0 }

func acrossSIMD(dst, src []float32, rows, n int, p *Lerp) int { return 0 }

func downSIMD(dst, src []float32, w int, p *Lerp) int { return 0 }
