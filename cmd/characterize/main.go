// Command characterize regenerates the paper's characterization section
// (Section III): Tables II–VI and Figs 4–9. With no flags it prints
// everything; individual -tableN / -figN flags select subsets.
//
//	go run ./cmd/characterize            # everything
//	go run ./cmd/characterize -table3    # just the latency matrix
//	go run ./cmd/characterize -fig8 -csv # batch sweep as CSV
//
// The full output is committed as docs/characterize.txt and pinned by
// TestCharacterizeGolden.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pcnn/internal/experiments"
	"pcnn/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("characterize: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args and writes the selected tables and figures to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	var (
		table2 = fs.Bool("table2", false, "GPU configurations")
		table3 = fs.Bool("table3", false, "latencies w/ and w/o batching (with OOM marks)")
		table4 = fs.Bool("table4", false, "CNN-dominated kernel details")
		table5 = fs.Bool("table5", false, "Util of AlexNet per platform")
		table6 = fs.Bool("table6", false, "simulation parameters")
		fig4   = fs.Bool("fig4", false, "throughput ratio non-batching/batching")
		fig5   = fs.Bool("fig5", false, "compute efficiency per conv layer")
		fig6   = fs.Bool("fig6", false, "instruction breakdown per tile size")
		fig7   = fs.Bool("fig7", false, "RR vs PSM CTA scheduling")
		fig8   = fs.Bool("fig8", false, "throughput vs batch size + optimal batches")
		fig9   = fs.Bool("fig9", false, "TLP vs registers staircase")
		csv    = fs.Bool("csv", false, "emit tables as CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := !(*table2 || *table3 || *table4 || *table5 || *table6 ||
		*fig4 || *fig5 || *fig6 || *fig7 || *fig8 || *fig9)

	emit := func(t *report.Table) {
		if *csv {
			t.RenderCSV(w)
		} else {
			t.Render(w)
		}
		fmt.Fprintln(w)
	}
	emitFig := func(f *report.Figure) {
		f.Render(w)
		fmt.Fprintln(w)
	}

	if all || *table2 {
		emit(experiments.TableII())
	}
	if all || *table3 {
		t, err := experiments.TableIII()
		if err != nil {
			return err
		}
		emit(t)
	}
	if all || *table4 {
		emit(experiments.TableIV())
	}
	if all || *table5 {
		emit(experiments.TableV())
	}
	if all || *table6 {
		emit(experiments.TableVI())
	}
	if all || *fig4 {
		f, err := experiments.Fig4Data()
		if err != nil {
			return err
		}
		emitFig(f)
	}
	if all || *fig5 {
		f, err := experiments.Fig5Data()
		if err != nil {
			return err
		}
		emitFig(f)
	}
	if all || *fig6 {
		emitFig(experiments.Fig6Data())
	}
	if all || *fig7 {
		t, err := experiments.Fig7Data()
		if err != nil {
			return err
		}
		emit(t)
	}
	if all || *fig8 {
		f, knees, err := experiments.Fig8Data()
		if err != nil {
			return err
		}
		emitFig(f)
		fmt.Fprintln(w, "Fig 8 optimal (knee) batch per platform:")
		for _, dev := range []string{"K20c", "TitanX", "GTX970m", "TX1"} {
			fmt.Fprintf(w, "  %-8s %d\n", dev, knees[dev])
		}
		fmt.Fprintln(w)
	}
	if all || *fig9 {
		f, cands, err := experiments.Fig9Data()
		if err != nil {
			return err
		}
		emitFig(f)
		fmt.Fprintln(w, "Fig 9 pruned candidates (rightmost point of each stair):")
		for _, c := range cands {
			fmt.Fprintf(w, "  regs=%-3d TLP=%d\n", c.Regs, c.TLP)
		}
		fmt.Fprintln(w)
	}
	return nil
}
