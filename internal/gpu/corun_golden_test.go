package gpu_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
)

// goldenCoRun is one SimulateConcurrent input of the co-run golden set.
type goldenCoRun struct {
	dev *gpu.Device
	ls  []gpu.Launch
}

func (g goldenCoRun) key() string {
	keys := make([]string, len(g.ls))
	for i, l := range g.ls {
		keys[i] = goldenLaunch{g.dev, l}.key()
	}
	return strings.Join(keys, " + ")
}

// goldenCoRuns enumerates the pinned co-runs: every launch pair
// Plan.SimulateShared issues for the 36 cells against the GoogLeNet
// tagging background the scenario engine co-runs (replayed through
// CoRunLaunches, the method SimulateShared itself iterates), and hand-built
// two- and three-launch disjoint-window cases over the placement, TLP and
// gating knobs plus DRAM-bound pairs.
func goldenCoRuns(t *testing.T) []goldenCoRun {
	t.Helper()
	var out []goldenCoRun
	for _, dev := range gpu.AllPlatforms() {
		bg, err := compile.Compile(nn.GoogLeNetShape(), dev, satisfaction.ImageTagging())
		if err != nil {
			t.Fatalf("compile background on %s: %v", dev.Name, err)
		}
		for _, net := range nn.AllNetShapes() {
			for _, task := range satisfaction.EvaluationTasks() {
				p, err := compile.Compile(net, dev, task)
				if err != nil {
					t.Fatalf("compile %s/%s/%s: %v", net.Name, dev.Name, task.Name, err)
				}
				for _, ls := range p.CoRunLaunches(bg) {
					if len(ls) > 1 {
						out = append(out, goldenCoRun{p.Device(), ls})
					}
				}
			}
		}
	}

	gemm := gpu.Kernel{
		Name: "gemm", GridSize: 150, BlockSize: 256, RegsPerThread: 79,
		SharedMemPerBlock: 8468, FMAInsts: 19200, OtherInsts: 11000, GlobalBytes: 2464,
	}
	small := gemm
	small.Name, small.GridSize = "small", 5 // one partial wave: retires together
	mem := gpu.Kernel{Name: "mem", GridSize: 64, BlockSize: 128, FMAInsts: 1, GlobalBytes: 4096}
	mixed := gpu.Kernel{
		Name: "mixed", GridSize: 37, BlockSize: 128, RegsPerThread: 64,
		SharedMemPerBlock: 12544, FMAInsts: 900, OtherInsts: 700, GlobalBytes: 1800,
	}
	empty := gemm
	empty.Name, empty.GridSize = "empty", 0
	slow, err := gpu.TitanX().AtFrequency(0.55)
	if err != nil {
		t.Fatal(err)
	}
	at := func(k gpu.Kernel, p gpu.SchedulerPolicy, off, lim, tlp int, gate bool) gpu.Launch {
		return gpu.Launch{Kernel: k, Config: gpu.LaunchConfig{
			Policy: p, SMOffset: off, SMLimit: lim, TLPLimit: tlp, PowerGateIdle: gate}}
	}
	const rr, psm = gpu.RoundRobin, gpu.PrioritySM
	for _, dev := range []*gpu.Device{gpu.K20c(), gpu.GTX970m(), slow} {
		n := dev.NumSMs
		third := n / 3
		out = append(out,
			// Pairs: gating on, off and mixed; PSM beside RR; TLP-limited.
			goldenCoRun{dev, []gpu.Launch{at(gemm, psm, 0, 4, 2, true), at(mixed, rr, 4, 0, 0, true)}},
			goldenCoRun{dev, []gpu.Launch{at(gemm, rr, 0, 4, 0, false), at(mixed, psm, 4, 0, 3, false)}},
			goldenCoRun{dev, []gpu.Launch{at(mixed, psm, 0, 2, 1, true), at(gemm, rr, 2, 0, 0, false)}},
			// A window smaller than the device leaves SMs nobody owns.
			goldenCoRun{dev, []gpu.Launch{at(small, psm, 0, 2, 0, true), at(mixed, rr, 3, 2, 0, true)}},
			goldenCoRun{dev, []gpu.Launch{at(small, rr, 1, 2, 0, false), at(gemm, psm, 5, 3, 2, false)}},
			// DRAM-bound pairs share the one channel.
			goldenCoRun{dev, []gpu.Launch{at(mem, psm, 0, n/2, 0, false), at(mem, psm, n/2, 0, 0, false)}},
			goldenCoRun{dev, []gpu.Launch{at(mem, rr, 0, 2, 0, true), at(gemm, psm, 2, 0, 0, true)}},
			// An empty grid beside a live one.
			goldenCoRun{dev, []gpu.Launch{at(empty, psm, 0, 2, 0, true), at(mixed, rr, 2, 0, 0, true)}},
			// Three launches on thirds of the device.
			goldenCoRun{dev, []gpu.Launch{
				at(gemm, psm, 0, third, 2, true), at(mem, rr, third, third, 0, true), at(mixed, psm, 2*third, 0, 0, true)}},
			goldenCoRun{dev, []gpu.Launch{
				at(mixed, rr, 0, third, 0, false), at(small, psm, third, third, 1, true), at(mem, rr, 2*third, 0, 4, false)}},
		)
	}
	return out
}

// TestSimulateConcurrentGolden pins co-running bit for bit: Float64bits of
// the shared totals and of each kernel's completion, plus its SM count,
// for every co-run the repository issues. MaxResident is left out: the
// parent's co-run loop sampled it only after re-dispatch and under-reported
// it.
func TestSimulateConcurrentGolden(t *testing.T) {
	var got bytes.Buffer
	seen := map[string]bool{}
	for _, g := range goldenCoRuns(t) {
		key := g.key()
		if seen[key] {
			continue
		}
		seen[key] = true
		r, err := g.dev.SimulateConcurrent(g.ls)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		fmt.Fprintf(&got, "%s => %016x %016x %016x", key,
			math.Float64bits(r.TotalMS), math.Float64bits(r.EnergyJ), math.Float64bits(r.AvgPowerW))
		for _, k := range r.PerKernel {
			fmt.Fprintf(&got, " | %016x %016x %d", math.Float64bits(k.Cycles), math.Float64bits(k.TimeMS), k.ActiveSMs)
		}
		got.WriteByte('\n')
	}
	checkGolden(t, "corun.golden", got.Bytes())
}
