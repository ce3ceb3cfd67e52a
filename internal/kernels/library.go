package kernels

import (
	"fmt"

	"pcnn/internal/gpu"
)

// Library models how each deep-learning library of Section III picks its
// SGEMM kernel for a convolutional GEMM. These policies reproduce the
// Table IV observations: cuBLAS uses 64×64 tiles on Kepler and 128×64 on
// Maxwell-class parts; cuDNN drops to 32×32 tiles on mobile to recover
// occupancy; Nervana always runs its 128-wide tiles and only supports
// batch sizes that are multiples of 32.
type Library int

// The three characterized libraries.
const (
	CuBLAS Library = iota
	CuDNN
	Nervana
)

// AllLibraries returns the characterization order used in Table III.
func AllLibraries() []Library { return []Library{CuBLAS, CuDNN, Nervana} }

// String returns the library name.
func (l Library) String() string {
	switch l {
	case CuBLAS:
		return "cuBLAS"
	case CuDNN:
		return "cuDNN"
	case Nervana:
		return "Nervana"
	default:
		return "unknown"
	}
}

// RoundBatch rounds a requested batch up to the library's granularity.
func (l Library) RoundBatch(batch int) int {
	if batch < 1 {
		batch = 1
	}
	if l == Nervana {
		return ceilDiv(batch, 32) * 32
	}
	return batch
}

// tileFor returns the tile the library selects on the device class.
func (l Library) tileFor(dev *gpu.Device) TileConfig {
	pick := func(name string) TileConfig {
		t, err := TileByName(name)
		if err != nil {
			panic(err) // standard tiles are static; unreachable
		}
		return t
	}
	switch l {
	case CuBLAS:
		// Kepler SGEMM uses 64×64 tiles; Maxwell-tuned cuBLAS uses 128×64.
		if dev.CoresPerSM >= 192 {
			return pick("64x64")
		}
		return pick("128x64")
	case CuDNN:
		// cuDNN matches cuBLAS on big parts but drops to 32×32 on mobile.
		if dev.Class == gpu.Mobile {
			return pick("32x32")
		}
		return pick("64x64")
	default: // Nervana: maximally register-blocked 128-wide tiles.
		return pick("128x128")
	}
}

// Kernel builds the library's kernel for an M×N×K GEMM on dev, using the
// vector-kernel path for narrow results (N below GEMVThreshold).
func (l Library) Kernel(name string, m, n, k int, dev *gpu.Device) gpu.Kernel {
	if n < GEMVThreshold {
		return BuildGEMV(fmt.Sprintf("%s/%s/gemv", l, name), m, n, k, dev)
	}
	tile := l.tileFor(dev)
	return Build(fmt.Sprintf("%s/%s/%s", l, name, tile), tile, m, n, k, tile.BaseRegs, dev)
}

// Tile exposes the library's tile choice (Table IV's Sub-matrix column).
func (l Library) Tile(dev *gpu.Device) TileConfig { return l.tileFor(dev) }
