package experiments

import (
	"strings"
	"sync"
	"testing"

	"pcnn/internal/compile"
	"pcnn/internal/core"
)

// The lab and tuning path train once per test binary (≈1 min single-core).
var fix struct {
	once sync.Once
	lab  *core.Lab
	path []compile.TuningPoint
	err  error
}

func evalFixture(t *testing.T) (*core.Lab, []compile.TuningPoint) {
	t.Helper()
	if testing.Short() {
		t.Skip("training fixtures in -short mode")
	}
	fix.once.Do(func() {
		fix.lab = core.NewLab(1)
		fix.path, fix.err = TunePath(fix.lab, "AlexNet")
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return fix.lab, fix.path
}

func TestTableIIRows(t *testing.T) {
	tab := TableII()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table II rows = %d, want 4", len(tab.Rows))
	}
}

func TestTableIIIHeadlines(t *testing.T) {
	data, err := TableIIIData()
	if err != nil {
		t.Fatal(err)
	}
	// The exact OOM pattern of the paper.
	wantOOM := map[string]bool{
		"GoogLeNet/TX1/cuDNN/batch":     true,
		"VGGNet/TX1/cuDNN/batch":        true,
		"VGGNet/TX1/Nervana/batch":      true,
		"VGGNet/TX1/cuDNN/nobatch":      false,
		"VGGNet/TX1/Nervana/nobatch":    true, // Nervana min batch 32 = the batched config
		"AlexNet/TitanX/cuBLAS/batch":   false,
		"AlexNet/TitanX/cuBLAS/nobatch": false,
	}
	for key, want := range wantOOM {
		parts := strings.Split(key, "/")
		cells := data[parts[0]][parts[1]][parts[2]]
		idx := 0
		if parts[3] == "nobatch" {
			idx = 1
		}
		if cells[idx].OOM != want {
			t.Errorf("%s: OOM = %v, want %v", key, cells[idx].OOM, want)
		}
	}
	// Batch latency far exceeds non-batch latency (AlexNet/TitanX/cuBLAS:
	// 131 vs 3 in the paper).
	cells := data["AlexNet"]["TitanX"]["cuBLAS"]
	if !(cells[0].LatencyMS > 5*cells[1].LatencyMS) {
		t.Errorf("batched %.1fms not ≫ non-batched %.1fms", cells[0].LatencyMS, cells[1].LatencyMS)
	}
	// Non-batched AlexNet on TitanX lands in the paper's few-ms regime.
	if cells[1].LatencyMS < 1 || cells[1].LatencyMS > 10 {
		t.Errorf("non-batched AlexNet/TitanX = %.2fms, want ≈3ms", cells[1].LatencyMS)
	}
	// AlexNet on TX1 without batching is tens of ms (paper: 25ms).
	tx1 := data["AlexNet"]["TX1"]["cuBLAS"]
	if tx1[1].LatencyMS < 10 || tx1[1].LatencyMS > 60 {
		t.Errorf("non-batched AlexNet/TX1 = %.2fms, want ≈25ms", tx1[1].LatencyMS)
	}
}

func TestTableIVStructure(t *testing.T) {
	tab := TableIV()
	if len(tab.Rows) != 8 {
		t.Fatalf("Table IV rows = %d, want 8", len(tab.Rows))
	}
	// TX1/cuBLAS row uses the 128x64 tile with 120 regs (Table IV).
	if tab.Rows[0][4] != "128x64" || tab.Rows[0][5] != "120" {
		t.Fatalf("TX1 cuBLAS row = %v", tab.Rows[0])
	}
	// K20 rows use 64x64 with 79 regs.
	if tab.Rows[4][4] != "64x64" || tab.Rows[4][5] != "79" {
		t.Fatalf("K20 cuBLAS row = %v", tab.Rows[4])
	}
}

func TestTableVShape(t *testing.T) {
	data := TableVData()
	for dev, utils := range data {
		if len(utils) != 5 {
			t.Fatalf("%s has %d utils", dev, len(utils))
		}
		// Util decreases from CONV1 to CONV5 on every platform (Table V),
		// and the last layers are severely underutilized.
		if !(utils[0] > utils[4]) {
			t.Errorf("%s: CONV1 util %v not > CONV5 %v", dev, utils[0], utils[4])
		}
		if utils[4] > 0.6 {
			t.Errorf("%s: CONV5 util %v, want underutilization", dev, utils[4])
		}
	}
}

func TestFig4RatiosBelowOne(t *testing.T) {
	fig, err := Fig4Data()
	if err != nil {
		t.Fatal(err)
	}
	// Non-batched throughput never beats batched throughput; cuDNN ratios
	// sit below 50% (Section III.C).
	for _, s := range fig.Series {
		for i, v := range s.Values {
			if v > 1.02 {
				t.Errorf("%s %s: ratio %v > 1", s.Name, s.Labels[i], v)
			}
		}
		// cuDNN ratios sit below 50% for the small-GEMM networks; VGG's
		// enormous per-image GEMMs saturate the device even non-batched,
		// so its ratio is naturally higher (documented in EXPERIMENTS.md).
		if s.Name == "cuDNN" {
			for i, v := range s.Values {
				if strings.HasPrefix(s.Labels[i], "VGGNet") {
					continue
				}
				if v > 0.5 && v != 0 {
					t.Errorf("cuDNN %s: ratio %v > 0.5", s.Labels[i], v)
				}
			}
		}
	}
}

func TestFig5CpELow(t *testing.T) {
	fig, err := Fig5Data()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for i, v := range s.Values {
			if v <= 0 || v > 1 {
				t.Errorf("%s %s: cpE %v out of range", s.Name, s.Labels[i], v)
			}
		}
		// K20 average cpE is well under peak (paper: <35%).
		if strings.HasPrefix(s.Name, "K20c") {
			var sum float64
			for _, v := range s.Values {
				sum += v
			}
			if avg := sum / float64(len(s.Values)); avg > 0.6 {
				t.Errorf("%s: average cpE %v, want inefficiency", s.Name, avg)
			}
		}
	}
}

func TestFig6DensityRises(t *testing.T) {
	fig := Fig6Data()
	dens := fig.Series[0]
	// 32x32 is the last standard tile; 128x128 the first.
	if !(dens.Values[len(dens.Values)-1] < dens.Values[0]) {
		t.Fatalf("density of smallest tile %v not below largest %v",
			dens.Values[len(dens.Values)-1], dens.Values[0])
	}
}

func TestFig7PSMHalvesSMs(t *testing.T) {
	tab, err := Fig7Data()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "4" || tab.Rows[1][1] != "2" {
		t.Fatalf("Fig 7 active SMs = %v / %v, want 4 / 2", tab.Rows[0][1], tab.Rows[1][1])
	}
}

func TestFig8KneesVaryByPlatform(t *testing.T) {
	_, knees, err := Fig8Data()
	if err != nil {
		t.Fatal(err)
	}
	// The optimal batch varies across platforms (Fig 8's red marks): the
	// small TX1 saturates no later than the big desktop part, and the
	// knees are not all identical.
	if knees["TX1"] > knees["TitanX"] {
		t.Fatalf("TX1 knee %d above TitanX knee %d", knees["TX1"], knees["TitanX"])
	}
	distinct := map[int]bool{}
	for dev, k := range knees {
		if k < 1 {
			t.Errorf("%s knee %d", dev, k)
		}
		distinct[k] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all platforms share knee batch %v", knees)
	}
}

func TestFig9CandidatesSpanTLP(t *testing.T) {
	_, cands, err := Fig9Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 4 {
		t.Fatalf("only %d candidates", len(cands))
	}
	if cands[0].TLP != 2 || cands[len(cands)-1].TLP != 8 {
		t.Fatalf("candidate TLP span %d..%d, want 2..8", cands[0].TLP, cands[len(cands)-1].TLP)
	}
}

func TestTableIOrdering(t *testing.T) {
	lab, _ := evalFixture(t)
	_, accs, ents, err := TableIData(lab)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy rises AlexNet → VGG → GoogLeNet while entropy falls from
	// AlexNet (Table I's relation).
	if !(accs[0] < accs[1] && accs[1] < accs[2]) {
		t.Errorf("accuracy ordering violated: %v", accs)
	}
	if !(ents[0] > ents[1] && ents[0] > ents[2]) {
		t.Errorf("AlexNet should be most uncertain: %v", ents)
	}
}

func TestEvalMatrixHeadlines(t *testing.T) {
	_, path := evalFixture(t)
	m, err := RunEvalMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range m.Devices {
		for _, task := range m.Tasks {
			res := m.Outcomes[dev][task]
			// P-CNN ≥ every baseline; Ideal ≥ P-CNN.
			for _, base := range []string{"Perf", "Energy", "QPE", "QPE+"} {
				if res["P-CNN"].SoC < res[base].SoC-1e-12 {
					t.Errorf("%s/%s: P-CNN SoC %v below %s %v", dev, task, res["P-CNN"].SoC, base, res[base].SoC)
				}
			}
			if res["Ideal"].SoC < res["P-CNN"].SoC-1e-12 {
				t.Errorf("%s/%s: Ideal below P-CNN", dev, task)
			}
		}
	}
	// TX1 real-time: only P-CNN and Ideal survive.
	rt := m.Outcomes["TX1"]["video-surveillance"]
	for _, base := range []string{"Perf", "Energy", "QPE", "QPE+"} {
		if rt[base].SoC != 0 {
			t.Errorf("TX1 real-time %s SoC %v, want 0", base, rt[base].SoC)
		}
	}
	if rt["P-CNN"].SoC <= 0 {
		t.Errorf("TX1 real-time P-CNN SoC %v, want positive", rt["P-CNN"].SoC)
	}
}

func TestFig16HeadlineClaim(t *testing.T) {
	lab, _ := evalFixture(t)
	eTrace, aTrace, err := Fig16Data(lab, Fig16EntropyThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(eTrace) < 3 || len(aTrace) < 3 {
		t.Fatalf("traces too short: %d / %d", len(eTrace), len(aTrace))
	}
	eSpeed, eLoss := Headline(eTrace)
	aSpeed, aLoss := Headline(aTrace)
	// The paper's claim: ≈1.8× speedup within ≈10% accuracy loss, with
	// the unsupervised entropy method matching the supervised one.
	if eSpeed < 1.5 {
		t.Errorf("entropy-based speedup %v, want ≥1.5 (paper: 1.8)", eSpeed)
	}
	if eLoss > 0.15 {
		t.Errorf("entropy-based accuracy loss %v, want ≤0.15 (paper: 0.10)", eLoss)
	}
	if aSpeed < 1.3 || aLoss > 0.15 {
		t.Errorf("accuracy-based endpoint speedup %v loss %v out of band", aSpeed, aLoss)
	}
	// Speedup grows monotonically along the entropy trace.
	for i := 1; i < len(eTrace); i++ {
		if eTrace[i].Speedup < eTrace[i-1].Speedup {
			t.Errorf("entropy-trace speedup dipped at iter %d", i)
		}
	}
}
