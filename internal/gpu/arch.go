// Package gpu models GPU microarchitectures at the level the paper's
// arguments operate on: streaming multiprocessors (SMs) with register-file,
// shared-memory, thread and CTA occupancy limits; a DRAM bandwidth channel
// shared across SMs; cooperative-thread-array (CTA) schedulers (Round-Robin
// and Priority-SM); and a GPUWattch-style power model with per-SM power
// gating.
//
// The simulator is a deterministic fluid discrete-event simulation at CTA
// granularity. Each resident CTA drains two work channels — instruction
// issue (shared SM issue bandwidth) and global-memory traffic (shared DRAM
// bandwidth) — and completes when both are empty. This reproduces the
// occupancy-, wave- and contention-driven behaviour (GridSize vs maxBlocks,
// Util, TLP staircases, RR-vs-PSM placement) that the paper evaluates with
// GPGPU-Sim, without modelling individual warps.
package gpu

import (
	"fmt"
	"math"
)

// PlatformClass labels the deployment class a device belongs to (Table II).
type PlatformClass string

// Platform classes from Table II of the paper.
const (
	Server   PlatformClass = "Server"
	Desktop  PlatformClass = "Desktop"
	Notebook PlatformClass = "Notebook"
	Mobile   PlatformClass = "Mobile"
)

// Device describes one GPU microarchitecture. The occupancy-related fields
// correspond to the GPGPU-Sim parameters in Table VI of the paper; the
// power fields parameterize the GPUWattch-style energy model.
type Device struct {
	Name     string
	Class    PlatformClass
	NumSMs   int
	ClockMHz float64 // SM core clock
	// CoresPerSM is the number of CUDA cores per SM; each core retires one
	// scalar instruction (one FMA = 2 FLOPs) per cycle at peak.
	CoresPerSM int

	// Per-SM occupancy limits (Table VI).
	RegistersPerSM  int // 32-bit registers per SM (e.g. 65536)
	SharedMemPerSM  int // bytes of shared memory per SM (e.g. 49152)
	MaxCTAsPerSM    int // hardware CTA slots (e.g. 16)
	MaxThreadsPerSM int // resident thread limit (e.g. 2048)

	// Memory system.
	GlobalMemBytes int64   // device memory capacity
	UsableMemFrac  float64 // fraction usable by one process (TX1 shares with the OS)
	// MemBandwidthGBps is the *effective* DRAM bandwidth the simulator
	// uses; RatedMemBWGBps (optional, for display) is the spec-sheet
	// number when the two differ (mobile LPDDR4 sustains well under its
	// rated peak).
	MemBandwidthGBps float64
	RatedMemBWGBps   float64

	// PerThreadIPC bounds how many instructions a single thread can issue
	// per cycle (dependent-instruction latency); it is what makes low
	// occupancy unable to saturate the cores.
	PerThreadIPC float64

	// Power model (GPUWattch-style decomposition).
	IdlePowerW       float64 // chip-level always-on power
	SMStaticPowerW   float64 // leakage/clock power per non-gated SM
	SMDynPowerW      float64 // additional per-SM power at 100% issue activity
	DRAMPowerPerGBps float64 // dynamic DRAM power per GB/s of achieved bandwidth
}

// Validate reports an error if the device description is incoherent.
func (d *Device) Validate() error {
	switch {
	case d.NumSMs <= 0:
		return fmt.Errorf("gpu: %s: NumSMs must be positive, got %d", d.Name, d.NumSMs)
	case d.ClockMHz <= 0:
		return fmt.Errorf("gpu: %s: ClockMHz must be positive, got %g", d.Name, d.ClockMHz)
	case d.CoresPerSM <= 0:
		return fmt.Errorf("gpu: %s: CoresPerSM must be positive, got %d", d.Name, d.CoresPerSM)
	case d.RegistersPerSM <= 0 || d.SharedMemPerSM <= 0:
		return fmt.Errorf("gpu: %s: register file and shared memory must be positive", d.Name)
	case d.MaxCTAsPerSM <= 0 || d.MaxThreadsPerSM <= 0:
		return fmt.Errorf("gpu: %s: CTA and thread limits must be positive", d.Name)
	case d.PerThreadIPC <= 0 || d.PerThreadIPC > 1:
		return fmt.Errorf("gpu: %s: PerThreadIPC must be in (0,1], got %g", d.Name, d.PerThreadIPC)
	case d.UsableMemFrac <= 0 || d.UsableMemFrac > 1:
		return fmt.Errorf("gpu: %s: UsableMemFrac must be in (0,1], got %g", d.Name, d.UsableMemFrac)
	case d.MemBandwidthGBps <= 0:
		return fmt.Errorf("gpu: %s: MemBandwidthGBps must be positive", d.Name)
	}
	return nil
}

// TotalCores returns the device-wide CUDA core count.
func (d *Device) TotalCores() int { return d.NumSMs * d.CoresPerSM }

// PeakGFLOPs returns the device peak single-precision throughput in GFLOP/s:
// 2 FLOPs (one multiply-accumulate) per core per cycle (denominator of Eq 3).
func (d *Device) PeakGFLOPs() float64 {
	return 2 * d.ClockMHz * 1e6 * float64(d.TotalCores()) / 1e9
}

// PeakSMGFLOPs returns the per-SM peak throughput in GFLOP/s (the
// `peakFlops` term of the time model, Eq 12).
func (d *Device) PeakSMGFLOPs() float64 {
	return 2 * d.ClockMHz * 1e6 * float64(d.CoresPerSM) / 1e9
}

// BytesPerCycle returns DRAM bandwidth expressed in bytes per core cycle.
func (d *Device) BytesPerCycle() float64 {
	return d.MemBandwidthGBps * 1e9 / (d.ClockMHz * 1e6)
}

// UsableMemBytes returns the device memory one inference process can use.
func (d *Device) UsableMemBytes() int64 {
	return int64(float64(d.GlobalMemBytes) * d.UsableMemFrac)
}

// CyclesToMS converts core cycles to milliseconds on this device.
func (d *Device) CyclesToMS(cycles float64) float64 {
	return cycles / (d.ClockMHz * 1e3)
}

// Occupancy describes how many CTAs of a kernel one SM can host and which
// resource is the binding constraint.
type Occupancy struct {
	CTAs       int    // CTAs resident per SM (0 means the kernel cannot launch)
	Limiter    string // "registers", "shared memory", "threads", or "CTA slots"
	ByRegs     int    // #blocks(register) in Table IV
	BySharedM  int    // #blocks(shmem) in Table IV
	ByThreads  int
	ByCTASlots int
}

// OccupancyFor computes the per-SM CTA residency limits for a kernel
// (Eq 5's per-SM term and the maxBlocks columns of Table IV).
func (d *Device) OccupancyFor(k Kernel) Occupancy {
	o := Occupancy{
		ByThreads:  d.MaxThreadsPerSM / k.BlockSize,
		ByCTASlots: d.MaxCTAsPerSM,
	}
	const unconstrained = math.MaxInt32
	regPerBlock := k.BlockSize * k.RegsPerThread
	if regPerBlock > 0 {
		o.ByRegs = d.RegistersPerSM / regPerBlock
	} else {
		o.ByRegs = unconstrained
	}
	if k.SharedMemPerBlock > 0 {
		o.BySharedM = d.SharedMemPerSM / k.SharedMemPerBlock
	} else {
		o.BySharedM = unconstrained
	}
	o.CTAs = o.ByRegs
	o.Limiter = "registers"
	if o.BySharedM < o.CTAs {
		o.CTAs = o.BySharedM
		o.Limiter = "shared memory"
	}
	if o.ByThreads < o.CTAs {
		o.CTAs = o.ByThreads
		o.Limiter = "threads"
	}
	if o.ByCTASlots < o.CTAs {
		o.CTAs = o.ByCTASlots
		o.Limiter = "CTA slots"
	}
	if o.CTAs < 0 {
		o.CTAs = 0
	}
	return o
}

// MaxBlocks returns the device-wide number of concurrently resident CTAs
// for a kernel: nSMs × per-SM occupancy (Eq 5).
func (d *Device) MaxBlocks(k Kernel) int {
	return d.NumSMs * d.OccupancyFor(k).CTAs
}
