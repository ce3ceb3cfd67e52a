package gpu

import "fmt"

// Kernel describes one GPU kernel launch in the terms the simulator and the
// occupancy model consume: launch geometry, per-thread resource usage, and
// per-thread work decomposed into instruction issue and DRAM traffic.
//
// For the SGEMM kernels the paper studies, these fields are produced by
// internal/kernels from a tile configuration; nothing in this package is
// SGEMM-specific.
type Kernel struct {
	Name string

	GridSize  int // number of CTAs (Eq 4)
	BlockSize int // threads per CTA

	RegsPerThread     int // architectural registers per thread
	SharedMemPerBlock int // bytes of shared memory per CTA

	// Per-thread work. FMAInsts counts fused multiply-add instructions
	// (2 FLOPs each); OtherInsts counts every other issued instruction
	// (loads, address arithmetic, control, spill traffic). GlobalBytes is
	// DRAM traffic per thread in bytes.
	FMAInsts    float64
	OtherInsts  float64
	GlobalBytes float64
}

// Validate reports an error if the launch description is incoherent.
func (k Kernel) Validate() error {
	switch {
	case k.GridSize < 0:
		return fmt.Errorf("gpu: kernel %s: negative GridSize %d", k.Name, k.GridSize)
	case k.BlockSize <= 0:
		return fmt.Errorf("gpu: kernel %s: BlockSize must be positive, got %d", k.Name, k.BlockSize)
	case k.RegsPerThread < 0 || k.SharedMemPerBlock < 0:
		return fmt.Errorf("gpu: kernel %s: negative resource usage", k.Name)
	case k.FMAInsts < 0 || k.OtherInsts < 0 || k.GlobalBytes < 0:
		return fmt.Errorf("gpu: kernel %s: negative work", k.Name)
	}
	return nil
}

// TotalInstsPerThread returns all issued instructions per thread.
func (k Kernel) TotalInstsPerThread() float64 { return k.FMAInsts + k.OtherInsts }

// FMAFraction returns the computation density: the ratio of FMA
// instructions to total instructions (Fig 6).
func (k Kernel) FMAFraction() float64 {
	tot := k.TotalInstsPerThread()
	if tot == 0 {
		return 0
	}
	return k.FMAInsts / tot
}

// issueWorkPerCTA returns the instruction-issue work of one CTA in
// thread-instruction units.
func (k Kernel) issueWorkPerCTA() float64 {
	return k.TotalInstsPerThread() * float64(k.BlockSize)
}

// memWorkPerCTA returns the DRAM traffic of one CTA in bytes.
func (k Kernel) memWorkPerCTA() float64 {
	return k.GlobalBytes * float64(k.BlockSize)
}
