package gpu_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current simulator")

// goldenLaunch is one simulator input of the golden set.
type goldenLaunch struct {
	dev *gpu.Device
	l   gpu.Launch
}

// key spells out everything Simulate reads from the launch (the kernel
// name and the device's power/clock fields ride on the device name), so
// identical launches reached from different cells collapse to one line
// and a change in what the compiler emits shows up as a changed key set.
func (g goldenLaunch) key() string {
	k, c := g.l.Kernel, g.l.Config
	return fmt.Sprintf("%s grid=%d block=%d regs=%d shm=%d fma=%v other=%v bytes=%v %s off=%d lim=%d tlp=%d gate=%t",
		g.dev.Name, k.GridSize, k.BlockSize, k.RegsPerThread, k.SharedMemPerBlock,
		k.FMAInsts, k.OtherInsts, k.GlobalBytes, c.Policy, c.SMOffset, c.SMLimit, c.TLPLimit, c.PowerGateIdle)
}

// goldenLaunches enumerates the pinned set: every launch of the 36 cells
// partitioned and baseline, the perforated launches of each synthetic
// ladder level, and hand-built launches for the placement and power knobs
// the cells do not reach.
func goldenLaunches(t *testing.T) []goldenLaunch {
	t.Helper()
	var out []goldenLaunch
	for _, net := range nn.AllNetShapes() {
		for _, dev := range gpu.AllPlatforms() {
			for _, task := range satisfaction.EvaluationTasks() {
				p, err := compile.Compile(net, dev, task)
				if err != nil {
					t.Fatalf("compile %s/%s/%s: %v", net.Name, dev.Name, task.Name, err)
				}
				for _, part := range []bool{true, false} {
					for _, l := range p.Launches(part) {
						out = append(out, goldenLaunch{p.Device(), l})
					}
				}
				for _, pt := range serve.SyntheticPath(net, task, serve.DefaultSyntheticLevels)[1:] {
					ls, err := p.PerforatedLaunches(pt.Keeps, true)
					if err != nil {
						t.Fatal(err)
					}
					for _, l := range ls {
						out = append(out, goldenLaunch{p.Device(), l})
					}
				}
			}
		}
	}

	gemm := gpu.Kernel{
		Name: "gemm", GridSize: 150, BlockSize: 256, RegsPerThread: 79,
		SharedMemPerBlock: 8468, FMAInsts: 19200, OtherInsts: 11000, GlobalBytes: 2464,
	}
	mem := gpu.Kernel{Name: "mem", GridSize: 64, BlockSize: 128, FMAInsts: 1, GlobalBytes: 4096}
	mixed := gpu.Kernel{
		Name: "mixed", GridSize: 37, BlockSize: 128, RegsPerThread: 64,
		SharedMemPerBlock: 12544, FMAInsts: 900, OtherInsts: 700, GlobalBytes: 1800,
	}
	empty := gemm
	empty.GridSize = 0
	slow, err := gpu.TX1().AtFrequency(0.55)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []*gpu.Device{gpu.K20c(), gpu.TX1(), slow} {
		for _, k := range []gpu.Kernel{gemm, mem, mixed, empty} {
			for _, cfg := range []gpu.LaunchConfig{
				gpu.DefaultLaunch(),
				{Policy: gpu.PrioritySM},
				{Policy: gpu.RoundRobin, TLPLimit: 2},
				{Policy: gpu.PrioritySM, TLPLimit: 3, PowerGateIdle: true},
				{Policy: gpu.PrioritySM, SMLimit: 1, TLPLimit: 1, PowerGateIdle: true},
				{Policy: gpu.RoundRobin, SMOffset: 1, SMLimit: 1},
				{Policy: gpu.RoundRobin, SMOffset: 1, PowerGateIdle: true},
			} {
				out = append(out, goldenLaunch{dev, gpu.Launch{Kernel: k, Config: cfg}})
			}
		}
	}
	return out
}

// TestSimulateGolden pins the simulator bit for bit: Float64bits of every
// float the serving and evaluation layers read from a Result, plus the two
// residency counts, over the launches the repository's figures and bench
// files are built from. Any rewrite of Simulate must reproduce the file
// unchanged; -update is the only way to regenerate it.
func TestSimulateGolden(t *testing.T) {
	var got bytes.Buffer
	seen := map[string]bool{}
	for _, g := range goldenLaunches(t) {
		key := g.key()
		if seen[key] {
			continue
		}
		seen[key] = true
		r, err := g.dev.Simulate(g.l.Kernel, g.l.Config)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		fmt.Fprintf(&got, "%s => %016x %016x %016x %016x %016x %d %d\n", key,
			math.Float64bits(r.Cycles), math.Float64bits(r.TimeMS), math.Float64bits(r.EnergyJ),
			math.Float64bits(r.IssueUtil), math.Float64bits(r.DRAMUtil), r.ActiveSMs, r.MaxResident)
	}
	checkGolden(t, "simulate.golden", got.Bytes())
}

// checkGolden compares got with testdata/<name> byte for byte, naming the
// first differing line; under -update it rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, simulator produced %d", name, len(wl), len(gl))
}
