// Command experiments regenerates the paper's evaluation section
// (Section V): Table I, the scheduler comparison of Figs 13–15, and the
// accuracy-tuning comparison of Fig 16. It trains the scaled networks on
// the synthetic task, so a full run takes a few minutes of (single-core)
// CPU time.
//
//	go run ./cmd/experiments             # everything
//	go run ./cmd/experiments -fig16      # just the tuning comparison
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pcnn/internal/core"
	"pcnn/internal/experiments"
	"pcnn/internal/report"
	"pcnn/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		table1 = flag.Bool("table1", false, "accuracy vs entropy (trains 3 networks)")
		fig13  = flag.Bool("fig13", false, "normalized runtime and SoC_time")
		fig14  = flag.Bool("fig14", false, "normalized energy")
		fig15  = flag.Bool("fig15", false, "SoC per scheduler")
		fig16  = flag.Bool("fig16", false, "entropy-based vs accuracy-based tuning")
		seed   = flag.Int64("seed", 1, "lab dataset seed")
		// Sharding a GEMM across cores never changes a bit of its result;
		// the naive serial oracle rounds differently from the blocked
		// kernels, so -backend serial may move a summary's last digits.
		backend = flag.String("backend", "", "host GEMM backend: auto, blocked (the same path) or serial (the naive test oracle) (default auto)")
		// Reduced precision DOES change the numbers — it is the experiment:
		// rerun a figure at int8 to see how the quantized host path shifts
		// the accuracy/entropy trade against the fp32 baseline.
		precision = flag.String("precision", "", "host GEMM precision: fp32, fp16 or int8 (default fp32)")
	)
	flag.Parse()

	if *backend != "" {
		b, err := tensor.ParseBackend(*backend)
		if err != nil {
			log.Fatal(err)
		}
		tensor.Default().SetBackend(b)
	}
	if *precision != "" {
		p, err := tensor.ParsePrecision(*precision)
		if err != nil {
			log.Fatal(err)
		}
		tensor.Default().SetPrecision(p)
	}

	all := !(*table1 || *fig13 || *fig14 || *fig15 || *fig16)
	lab := core.NewLab(*seed)

	if all || *table1 {
		t, _, _, err := experiments.TableIData(lab)
		if err != nil {
			log.Fatal(err)
		}
		t.Render(os.Stdout)
		fmt.Println()
	}

	if all || *fig13 || *fig14 || *fig15 {
		log.Print("training AlexNet analogue and tuning (≈30s single-core)…")
		path, err := experiments.TunePath(lab, "AlexNet")
		if err != nil {
			log.Fatal(err)
		}
		m, err := experiments.RunEvalMatrix(path)
		if err != nil {
			log.Fatal(err)
		}
		emit := func(figs []*report.Figure) {
			for _, f := range figs {
				f.Render(os.Stdout)
				fmt.Println()
			}
		}
		if all || *fig13 {
			emit(experiments.Fig13(m))
		}
		if all || *fig14 {
			emit(experiments.Fig14(m))
		}
		if all || *fig15 {
			emit(experiments.Fig15(m))
			// The paper marks violated deadlines with 'x'.
			fmt.Println("Deadline verdicts (x = violated):")
			for _, dev := range m.Devices {
				for _, task := range m.Tasks {
					fmt.Printf("  %-6s %-20s", dev, task)
					for _, s := range []string{"Perf", "Energy", "QPE", "QPE+", "P-CNN", "Ideal"} {
						mark := "ok"
						if !m.Outcomes[dev][task][s].MeetsDeadline {
							mark = "x"
						}
						fmt.Printf(" %s=%s", s, mark)
					}
					fmt.Println()
				}
			}
			fmt.Println()
		}
	}

	if all || *fig16 {
		log.Print("running entropy-based and accuracy-based tuning (≈60s single-core)…")
		eTrace, aTrace, err := experiments.Fig16Data(lab, experiments.Fig16EntropyThreshold)
		if err != nil {
			log.Fatal(err)
		}
		experiments.Fig16(eTrace, aTrace).Render(os.Stdout)
		eS, eL := experiments.Headline(eTrace)
		aS, aL := experiments.Headline(aTrace)
		fmt.Printf("\nHeadline: entropy-based %.2fx speedup at %.1f%% accuracy loss; "+
			"accuracy-based %.2fx at %.1f%% (paper: 1.8x within 10%%)\n\n",
			eS, eL*100, aS, aL*100)
	}
}
