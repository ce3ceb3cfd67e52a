// Package experiments regenerates every table and figure of the paper's
// characterization (Section III) and evaluation (Section V) sections from
// the reproduction's models and simulator. The cmd tools and the benchmark
// harness both call these generators, so the printed rows and the benched
// work are identical.
package experiments

import (
	"fmt"

	"pcnn/internal/analytic"
	"pcnn/internal/gpu"
	"pcnn/internal/kernels"
	"pcnn/internal/nn"
	"pcnn/internal/report"
)

// characterizationBatches are the Table III batch sizes: "a smaller batch
// size than that used in training: 128 for AlexNet, 64 for GoogLeNet and
// 32 for VGGNet".
func characterizationBatches() map[string]int {
	return map[string]int{"AlexNet": 128, "GoogLeNet": 64, "VGGNet": 32}
}

// characterizationDevices are the three platforms of Table III.
func characterizationDevices() []*gpu.Device {
	return []*gpu.Device{gpu.TitanX(), gpu.GTX970m(), gpu.TX1()}
}

// TableII renders the GPU configurations.
func TableII() *report.Table {
	t := &report.Table{
		Title:  "Table II: GPU configurations",
		Header: []string{"GPU", "Platform", "SMs", "CUDA cores", "Clock(MHz)", "Memory", "BW(GB/s)"},
	}
	for _, d := range gpu.AllPlatforms() {
		t.AddRow(d.Name, string(d.Class), d.NumSMs, d.TotalCores(), d.ClockMHz,
			fmt.Sprintf("%dGB", d.GlobalMemBytes>>30), displayBW(d))
	}
	return t
}

// TableIIICell is one latency measurement (ms) or an out-of-memory mark.
type TableIIICell struct {
	LatencyMS float64
	OOM       bool
}

// String renders the cell like the paper ("x" for OOM).
func (c TableIIICell) String() string {
	if c.OOM {
		return "x"
	}
	return report.FormatFloat(c.LatencyMS)
}

// TableIIIData computes the full latency matrix: per network, per device,
// per library, batched and non-batched.
func TableIIIData() (map[string]map[string]map[string][2]TableIIICell, error) {
	out := map[string]map[string]map[string][2]TableIIICell{}
	batches := characterizationBatches()
	for _, net := range nn.AllNetShapes() {
		out[net.Name] = map[string]map[string][2]TableIIICell{}
		for _, dev := range characterizationDevices() {
			out[net.Name][dev.Name] = map[string][2]TableIIICell{}
			for _, lib := range kernels.AllLibraries() {
				var cells [2]TableIIICell
				for mode, batch := range []int{batches[net.Name], lib.RoundBatch(1)} {
					if !analytic.FitsMemoryLib(net, batch, dev, lib) {
						cells[mode] = TableIIICell{OOM: true}
						continue
					}
					_, agg, err := analytic.NetworkRun(net, batch, lib, dev)
					if err != nil {
						return nil, err
					}
					cells[mode] = TableIIICell{LatencyMS: agg.TimeMS}
				}
				out[net.Name][dev.Name][lib.String()] = cells
			}
		}
	}
	return out, nil
}

// TableIII renders the latency matrix in the paper's layout.
func TableIII() (*report.Table, error) {
	data, err := TableIIIData()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Table III: latencies (ms) w/ and w/o batching",
		Header: []string{"CNN", "GPU",
			"batch cuBLAS", "batch cuDNN", "batch Nervana",
			"nobatch cuBLAS", "nobatch cuDNN", "nobatch Nervana"},
	}
	for _, net := range nn.AllNetShapes() {
		for _, dev := range characterizationDevices() {
			row := []any{net.Name, dev.Name}
			for mode := 0; mode < 2; mode++ {
				for _, lib := range kernels.AllLibraries() {
					row = append(row, data[net.Name][dev.Name][lib.String()][mode].String())
				}
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// TableIV renders the detailed kernel information for AlexNet CONV2 and
// CONV5 on TX1 and K20 under cuBLAS and cuDNN.
func TableIV() *report.Table {
	t := &report.Table{
		Title: "Table IV: CNN-dominated kernel details (AlexNet, batch 1, per group)",
		Header: []string{"GPU", "Library", "Layer", "Result", "Sub-matrix",
			"Regs", "Shmem", "Block", "#blk(reg)", "#blk(shm)", "maxBlocks", "Grid"},
	}
	gemms := analytic.NetworkGEMMs(nn.AlexNetShape(), 1)
	picks := []analytic.LayerGEMM{gemms[1], gemms[4]} // CONV2, CONV5
	for _, dev := range []*gpu.Device{gpu.TX1(), gpu.K20c()} {
		for _, lib := range []kernels.Library{kernels.CuBLAS, kernels.CuDNN} {
			for _, g := range picks {
				tile := lib.Tile(dev)
				k := lib.Kernel(g.Name, g.M, g.N, g.K, dev)
				occ := dev.OccupancyFor(k)
				blkReg := dev.NumSMs * occ.ByRegs
				blkShm := dev.NumSMs * occ.BySharedM
				maxBlk := min(blkReg, blkShm)
				t.AddRow(dev.Name, lib.String(), g.Name,
					fmt.Sprintf("%dx%d", g.M, g.N), tile.String(),
					k.RegsPerThread, k.SharedMemPerBlock, k.BlockSize,
					blkReg, blkShm, fmt.Sprintf("min(%d,%d)=%d", blkShm, blkReg, maxBlk),
					k.GridSize)
			}
		}
	}
	return t
}

// TableVData computes the Util of AlexNet's conv layers per platform at
// batch 1 under each platform's cuBLAS kernels, exactly as the paper
// defines it: the per-group GEMM's grid (grouped convolutions dispatch one
// group at a time) against the register-limited maxBlocks of Eq 5. With
// these definitions the K20 row reproduces the paper's Table V to two
// decimals (0.82, 0.62, 0.46, 0.23, 0.15).
func TableVData() map[string][]float64 {
	out := map[string][]float64{}
	gemms := analytic.NetworkGEMMs(nn.AlexNetShape(), 1)[:5]
	for _, dev := range []*gpu.Device{gpu.K20c(), gpu.GTX970m(), gpu.TX1()} {
		var utils []float64
		for _, g := range gemms {
			k := kernels.CuBLAS.Kernel(g.Name, g.M, g.N, g.K, dev)
			maxBlocks := dev.NumSMs * dev.OccupancyFor(k).ByRegs // Eq 5
			utils = append(utils, analytic.Util(k.GridSize, maxBlocks))
		}
		out[dev.Name] = utils
	}
	return out
}

// TableV renders the Util table.
func TableV() *report.Table {
	t := &report.Table{
		Title:  "Table V: Util of AlexNet (batch 1)",
		Header: []string{"GPU", "CONV1", "CONV2", "CONV3", "CONV4", "CONV5"},
	}
	data := TableVData()
	for _, name := range []string{"K20c", "GTX970m", "TX1"} {
		row := []any{name}
		for _, u := range data[name] {
			row = append(row, u)
		}
		t.AddRow(row...)
	}
	return t
}

// TableVI renders the simulator parameters (Table VI).
func TableVI() *report.Table {
	t := &report.Table{
		Title:  "Table VI: simulation parameters",
		Header: []string{"Parameter", "K20c", "TX1"},
	}
	k20, tx1 := gpu.K20c(), gpu.TX1()
	t.AddRow("SMs", fmt.Sprintf("%d @ %gMHz", k20.NumSMs, k20.ClockMHz), fmt.Sprintf("%d @ %gMHz", tx1.NumSMs, tx1.ClockMHz))
	t.AddRow("Registers", fmt.Sprintf("%dx32bit", k20.RegistersPerSM), fmt.Sprintf("%dx32bit", tx1.RegistersPerSM))
	t.AddRow("TLP limit", fmt.Sprintf("%d CTAs, %d threads", k20.MaxCTAsPerSM, k20.MaxThreadsPerSM),
		fmt.Sprintf("%d CTAs, %d threads", tx1.MaxCTAsPerSM, tx1.MaxThreadsPerSM))
	t.AddRow("Shared memory", fmt.Sprintf("%dKB", k20.SharedMemPerSM>>10), fmt.Sprintf("%dKB", tx1.SharedMemPerSM>>10))
	return t
}

// Fig4Data computes the throughput ratio non-batching/batching per
// (network, device, library); OOM cells are omitted.
func Fig4Data() (*report.Figure, error) {
	data, err := TableIIIData()
	if err != nil {
		return nil, err
	}
	batches := characterizationBatches()
	fig := &report.Figure{Title: "Fig 4: throughput ratio w/o batching over batching"}
	for _, lib := range kernels.AllLibraries() {
		s := &report.Series{Name: lib.String()}
		for _, net := range nn.AllNetShapes() {
			for _, dev := range characterizationDevices() {
				cells := data[net.Name][dev.Name][lib.String()]
				label := net.Name + "/" + dev.Name
				if cells[0].OOM || cells[1].OOM {
					s.Add(label, 0)
					continue
				}
				batchThr := float64(batches[net.Name]) / cells[0].LatencyMS
				nbThr := float64(lib.RoundBatch(1)) / cells[1].LatencyMS
				s.Add(label, nbThr/batchThr)
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig5Data computes cpE (Eq 3) for AlexNet's conv layers under cuBLAS and
// cuDNN on K20 and TX1, non-batched — the regime Section III argues
// inference runs in, where later layers waste most of the machine.
func Fig5Data() (*report.Figure, error) {
	fig := &report.Figure{Title: "Fig 5: compute efficiency (cpE) of AlexNet conv layers, batch 1"}
	for _, dev := range []*gpu.Device{gpu.K20c(), gpu.TX1()} {
		for _, lib := range []kernels.Library{kernels.CuBLAS, kernels.CuDNN} {
			s := &report.Series{Name: dev.Name + "/" + lib.String()}
			gemms := analytic.NetworkGEMMs(nn.AlexNetShape(), 1)[:5]
			for _, g := range gemms {
				k := lib.Kernel(g.Name, g.M, g.N, g.K, dev)
				k.GridSize *= g.Groups
				r, err := dev.Simulate(k, gpu.DefaultLaunch())
				if err != nil {
					return nil, err
				}
				s.Add(g.Name, analytic.CpE(g.EffectiveFLOPs, r.TimeMS, dev))
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// Fig6Data computes the instruction breakdown (FMA density) per tile size
// for a representative conv GEMM.
func Fig6Data() *report.Figure {
	fig := &report.Figure{Title: "Fig 6: instruction breakdown by sub-matrix size (AlexNet CONV2 GEMM)"}
	dens := &report.Series{Name: "FMA fraction"}
	over := &report.Series{Name: "overhead fraction"}
	g := analytic.NetworkGEMMs(nn.AlexNetShape(), 128)[1]
	for _, tile := range kernels.StandardTiles() {
		k := kernels.Build("fig6", tile, g.M, g.N, g.K, tile.BaseRegs, gpu.K20c())
		dens.Add(tile.String(), k.FMAFraction())
		over.Add(tile.String(), 1-k.FMAFraction())
	}
	fig.Series = []*report.Series{dens, over}
	return fig
}

// Fig7Data reproduces the RR-vs-PSM illustration: 4 CTAs on a 4-SM device
// with optTLP 2.
func Fig7Data() (*report.Table, error) {
	dev := &gpu.Device{
		Name: "fig7", Class: gpu.Desktop, NumSMs: 4, ClockMHz: 1000, CoresPerSM: 128,
		RegistersPerSM: 65536, SharedMemPerSM: 49152, MaxCTAsPerSM: 16, MaxThreadsPerSM: 2048,
		GlobalMemBytes: 1 << 30, UsableMemFrac: 1,
		MemBandwidthGBps: 128, PerThreadIPC: 0.25, IdlePowerW: 10,
		SMStaticPowerW: 2, SMDynPowerW: 4, DRAMPowerPerGBps: 0.05,
	}
	k := gpu.Kernel{Name: "fig7", GridSize: 4, BlockSize: 128, RegsPerThread: 64, FMAInsts: 2000}
	rr, err := dev.Simulate(k, gpu.LaunchConfig{Policy: gpu.RoundRobin})
	if err != nil {
		return nil, err
	}
	psm, err := dev.Simulate(k, gpu.LaunchConfig{Policy: gpu.PrioritySM, SMLimit: 2, TLPLimit: 2, PowerGateIdle: true})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Fig 7: RR vs PSM (4 CTAs, 4 SMs, optTLP 2)",
		Header: []string{"Scheduler", "Active SMs", "Time(ms)", "Energy(J)"},
	}
	t.AddRow("RR", rr.ActiveSMs, rr.TimeMS, rr.EnergyJ)
	t.AddRow("PSM", psm.ActiveSMs, psm.TimeMS, psm.EnergyJ)
	return t, nil
}

// Fig8Batches is the batch sweep of Fig 8.
var Fig8Batches = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Fig8Data computes the throughput-vs-batch curves per platform for
// AlexNet by simulating cuBLAS execution at each batch size, and marks
// each platform's optimal (knee) batch — the point past which the
// saturated device gains no throughput but keeps paying memory.
func Fig8Data() (*report.Figure, map[string]int, error) {
	fig := &report.Figure{Title: "Fig 8: computing throughput vs batch size (AlexNet, cuBLAS)"}
	knees := map[string]int{}
	net := nn.AlexNetShape()
	for _, dev := range gpu.AllPlatforms() {
		var curve []analytic.ThroughputPoint
		s := &report.Series{Name: dev.Name}
		for _, b := range Fig8Batches {
			if !analytic.FitsMemoryLib(net, b, dev, kernels.CuBLAS) {
				continue
			}
			_, agg, err := analytic.NetworkRun(net, b, kernels.CuBLAS, dev)
			if err != nil {
				return nil, nil, err
			}
			p := analytic.ThroughputPoint{
				Batch:        b,
				TotalMS:      agg.TimeMS,
				ImagesPerSec: float64(b) / (agg.TimeMS * 1e-3),
			}
			curve = append(curve, p)
			s.Add(fmt.Sprintf("%d", b), p.ImagesPerSec)
		}
		fig.Series = append(fig.Series, s)
		knees[dev.Name] = analytic.KneeBatch(curve, 0.93)
	}
	return fig, knees, nil
}

// Fig9Data computes the TLP-vs-registers staircase for the 128×128 tile
// on K20 plus the pruned candidate points.
func Fig9Data() (*report.Figure, []kernels.StairPoint, error) {
	tile, err := kernels.TileByName("128x128")
	if err != nil {
		return nil, nil, err
	}
	dev := gpu.K20c()
	stairs := kernels.Staircase(tile, dev)
	s := &report.Series{Name: "TLP"}
	for _, p := range stairs {
		s.Add(fmt.Sprintf("%d", p.Regs), float64(p.TLP))
	}
	fig := &report.Figure{
		Title:  "Fig 9: TLP vs registers per thread (128x128 tile, K20)",
		Series: []*report.Series{s},
	}
	return fig, kernels.Candidates(tile, dev), nil
}

// displayBW prefers the spec-sheet bandwidth for display when the
// simulator uses a derated effective value.
func displayBW(d *gpu.Device) float64 {
	if d.RatedMemBWGBps > 0 {
		return d.RatedMemBWGBps
	}
	return d.MemBandwidthGBps
}
