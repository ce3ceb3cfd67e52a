package kernels

import "pcnn/internal/gpu"

// Register-spilling model (Section IV.B.2, Eq 7). Reducing a kernel's
// register count below its natural usage raises TLP but forces spilled
// values into memory. Following the paper, spills go first to *spare*
// shared memory — the space left per CTA after the kernel's own staging
// buffers at the target occupancy — and only then to global memory:
//
//	Spill_cost = N_global·Cost_global + N_shm·Cost_shm + N_others   (Eq 7)

// Per-access issue costs. A shared-memory access is one instruction; a
// global access costs more issue slots (address setup + higher replay
// probability) in addition to the DRAM traffic it generates.
const (
	costShm    = 1.0
	costGlobal = 2.0
	// spillSetupInsts is N_others per spilled register: address
	// computation for the spill slot.
	spillSetupInsts = 4.0
)

// SpillPlan describes where a kernel's spilled registers land and what
// the spill costs per thread.
type SpillPlan struct {
	Spilled   int // registers spilled per thread
	ToShared  int // registers that fit in spare shared memory
	ToGlobal  int // registers that overflow to global memory
	AccessesN float64
	// Per-thread counts of Eq 7.
	NShm    float64
	NGlobal float64
	NOthers float64
}

// PlanSpill computes the spill plan for running tile at `regs` registers
// per thread on dev. Spare shared memory is evaluated at the occupancy the
// reduced register count enables: spilling must not itself reduce TLP
// (the paper only uses *spare* shared memory).
func PlanSpill(tile TileConfig, regs, k int, dev *gpu.Device) SpillPlan {
	if regs >= tile.BaseRegs {
		return SpillPlan{}
	}
	// Occupancy at the reduced register count (shared memory still at the
	// kernel's own usage).
	probe := gpu.Kernel{
		BlockSize:         tile.BlockSize,
		RegsPerThread:     regs,
		SharedMemPerBlock: tile.SharedMem,
	}
	return planSpill(tile, regs, max(dev.OccupancyFor(probe).CTAs, 1), k, dev)
}

// planSpill is PlanSpill at a known occupancy tlp ≥ 1 for regs <
// tile.BaseRegs; a staircase candidate carries its own.
func planSpill(tile TileConfig, regs, tlp, k int, dev *gpu.Device) SpillPlan {
	p := SpillPlan{Spilled: tile.BaseRegs - regs}
	sparePerBlock := dev.SharedMemPerSM/tlp - tile.SharedMem
	if sparePerBlock < 0 {
		sparePerBlock = 0
	}
	slotsPerThread := sparePerBlock / 4 / tile.BlockSize
	p.ToShared = min(p.Spilled, slotsPerThread)
	p.ToGlobal = p.Spilled - p.ToShared

	// Each spilled value is touched once per kStep loop iteration
	// (store-or-load on its use site).
	p.AccessesN = float64(k) / kStep
	p.NShm = float64(p.ToShared) * p.AccessesN
	p.NGlobal = float64(p.ToGlobal) * p.AccessesN
	p.NOthers = float64(p.Spilled) * spillSetupInsts
	return p
}

// Cost returns Eq 7's Spill_cost in per-thread instruction-issue units.
func (p SpillPlan) Cost() float64 {
	return p.NGlobal*costGlobal + p.NShm*costShm + p.NOthers
}

// ExtraInsts returns the additional issued instructions per thread.
func (p SpillPlan) ExtraInsts() float64 { return p.Cost() }

// ExtraGlobalBytes returns the additional DRAM traffic per thread.
func (p SpillPlan) ExtraGlobalBytes() float64 { return 4 * p.NGlobal }
