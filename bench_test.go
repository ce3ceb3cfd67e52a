// The benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark regenerates its experiment through the same generators
// the cmd tools print from, and attaches the reproduced headline numbers
// as custom metrics so `go test -bench` doubles as the reproduction
// record. Training-heavy fixtures (the scaled networks) are built once
// outside the timed region.
package pcnn

import (
	"fmt"
	"sync"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/core"
	"pcnn/internal/experiments"
	"pcnn/internal/fleet"
	"pcnn/internal/scenario"
	"pcnn/internal/serve"
)

// benchFix lazily trains the lab fixtures shared by the evaluation
// benchmarks.
var benchFix struct {
	once sync.Once
	lab  *core.Lab
	path []compile.TuningPoint
	err  error
}

func benchLab(b *testing.B) (*core.Lab, []compile.TuningPoint) {
	b.Helper()
	benchFix.once.Do(func() {
		benchFix.lab = core.NewLab(1)
		benchFix.path, benchFix.err = experiments.TunePath(benchFix.lab, "AlexNet")
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.lab, benchFix.path
}

// BenchmarkTableI regenerates the accuracy-vs-entropy table. Each
// iteration trains the three scaled networks, which is the whole cost of
// the experiment.
func BenchmarkTableI(b *testing.B) {
	lab, _ := benchLab(b)
	var accs, ents []float64
	for i := 0; i < b.N; i++ {
		var err error
		_, accs, ents, err = experiments.TableIData(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(accs[0], "alexnet-acc")
	b.ReportMetric(accs[2], "googlenet-acc")
	b.ReportMetric(ents[0], "alexnet-entropy")
	b.ReportMetric(ents[2], "googlenet-entropy")
}

// BenchmarkTableIII regenerates the batching-latency matrix (27 simulated
// network runs plus OOM checks).
func BenchmarkTableIII(b *testing.B) {
	var cell experiments.TableIIICell
	for i := 0; i < b.N; i++ {
		data, err := experiments.TableIIIData()
		if err != nil {
			b.Fatal(err)
		}
		cell = data["AlexNet"]["TitanX"]["cuBLAS"][1]
	}
	b.ReportMetric(cell.LatencyMS, "alexnet-titanx-nobatch-ms")
}

// BenchmarkTableIV regenerates the kernel-detail table.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.TableIV(); len(tab.Rows) != 8 {
			b.Fatal("table IV malformed")
		}
	}
}

// BenchmarkTableV regenerates the Util table.
func BenchmarkTableV(b *testing.B) {
	var k20 []float64
	for i := 0; i < b.N; i++ {
		k20 = experiments.TableVData()["K20c"]
	}
	b.ReportMetric(k20[0], "conv1-util")
	b.ReportMetric(k20[4], "conv5-util")
}

// BenchmarkFig4 regenerates the throughput-ratio figure.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Data(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the per-layer cpE figure.
func BenchmarkFig5(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5Data()
		if err != nil {
			b.Fatal(err)
		}
		vals := fig.Series[0].Values
		last = vals[len(vals)-1]
	}
	b.ReportMetric(last, "k20-conv5-cpe")
}

// BenchmarkFig6 regenerates the instruction-breakdown figure.
func BenchmarkFig6(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		fig := experiments.Fig6Data()
		d = fig.Series[0].Values[0]
	}
	b.ReportMetric(d, "128x128-density")
}

// BenchmarkFig7 regenerates the RR-vs-PSM comparison.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Data(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the batch sweep over all four platforms.
func BenchmarkFig8(b *testing.B) {
	var knee int
	for i := 0; i < b.N; i++ {
		_, knees, err := experiments.Fig8Data()
		if err != nil {
			b.Fatal(err)
		}
		knee = knees["K20c"]
	}
	b.ReportMetric(float64(knee), "k20-knee-batch")
}

// BenchmarkFig9 regenerates the TLP staircase.
func BenchmarkFig9(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		_, cands, err := experiments.Fig9Data()
		if err != nil {
			b.Fatal(err)
		}
		n = len(cands)
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkFig13to15 regenerates the scheduler evaluation matrix behind
// Figs 13, 14 and 15 (2 devices × 3 tasks × 6 schedulers, each a full
// simulated network run).
func BenchmarkFig13to15(b *testing.B) {
	_, path := benchLab(b)
	b.ResetTimer()
	var m *experiments.EvalMatrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiments.RunEvalMatrix(path)
		if err != nil {
			b.Fatal(err)
		}
	}
	rt := m.Outcomes["TX1"]["video-surveillance"]
	b.ReportMetric(rt["P-CNN"].ResponseMS, "tx1-rt-pcnn-ms")
	b.ReportMetric(rt["P-CNN"].SoC, "tx1-rt-pcnn-soc")
	b.ReportMetric(rt["QPE+"].SoC, "tx1-rt-qpeplus-soc")
}

// BenchmarkFig16 regenerates the entropy-vs-accuracy tuning comparison.
// One iteration trains GoogLeNet-S twice and runs both greedy tuners —
// the paper's full Fig 16 workload.
func BenchmarkFig16(b *testing.B) {
	lab, _ := benchLab(b)
	b.ResetTimer()
	var eSpeed, eLoss float64
	for i := 0; i < b.N; i++ {
		eTrace, _, err := experiments.Fig16Data(lab, experiments.Fig16EntropyThreshold)
		if err != nil {
			b.Fatal(err)
		}
		eSpeed, eLoss = experiments.Headline(eTrace)
	}
	b.ReportMetric(eSpeed, "speedup-x")
	b.ReportMetric(eLoss*100, "acc-loss-pct")
}

// BenchmarkOfflineCompile measures one full offline compilation (the
// latency a deployment pays per platform), as an ablation of the
// analytical models' cost.
func BenchmarkOfflineCompile(b *testing.B) {
	dev := PlatformByName("K20c")
	net := NetworkByName("AlexNet")
	task := AgeDetection()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(net, dev, task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorAlexNetBatch1 measures the cycle-level simulator on
// one non-batched AlexNet inference (the evaluation's inner loop).
func BenchmarkSimulatorAlexNetBatch1(b *testing.B) {
	dev := PlatformByName("TX1")
	plan, err := Compile(NetworkByName("AlexNet"), dev, VideoSurveillance(60))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.Simulate(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRegenPass measures one cold pass over the simulated side,
// the same three public calls the repository benchmark's sim_regen
// workload times: the committed scenario matrix on a fresh engine, the
// three-replica fleet soak (hedge off and on), and the six-scheduler
// evaluation of AlexNet on TX1 for the three evaluation tasks. Nothing is
// carried between iterations; `make profile-sim` profiles it.
func BenchmarkSimRegenPass(b *testing.B) {
	const seed = 42
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&scenario.Engine{}).RunMatrix(scenario.DefaultMatrix(seed), nil); err != nil {
			b.Fatal(err)
		}
		if _, err := fleet.RunSoak(fleet.SoakSpec{Seed: seed, ReplicaCounts: []int{3}, RequestsPerModel: 600}); err != nil {
			b.Fatal(err)
		}
		for _, task := range EvaluationTasks() {
			fw, err := New("AlexNet", PlatformByName("TX1"), task)
			if err != nil {
				b.Fatal(err)
			}
			if err := fw.CompileOffline(); err != nil {
				b.Fatal(err)
			}
			if _, err := fw.Evaluate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExecuteLevels measures the serving data path's unit of work —
// PlanExecutor.Execute on a full plan batch of 32 — at levels 0/3/6/9/12 of
// the table the tuner attaches to the trained AlexNet-S: the deployment
// serve_forward runs (AlexNet on TX1 under image tagging, base level 9).
// Host time should fall with the level; EXPERIMENTS.md carries the full
// 13-row table beside the Eq 12 prediction, and `make profile-serve`
// profiles the level-9 row.
func BenchmarkExecuteLevels(b *testing.B) {
	fw, err := New("AlexNet", PlatformByName("TX1"), ImageTagging())
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.CompileOffline(); err != nil {
		b.Fatal(err)
	}
	lab := NewLab(1)
	net, err := lab.TrainNet("AlexNet")
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.AttachScaled(net, lab.Test.X); err != nil {
		b.Fatal(err)
	}
	ex, err := serve.NewPlanExecutor(fw.Plan, fw.TuningPath(), fw.Scaled, fw.Table)
	if err != nil {
		b.Fatal(err)
	}
	x := lab.Test.Slice(0, 32).X
	for _, level := range []int{0, 3, 6, 9, 12} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(level, 32, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
