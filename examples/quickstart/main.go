// Quickstart: deploy AlexNet on the Jetson TX1 for 60 FPS video
// surveillance with one call, then inspect what P-CNN did. Training the
// scaled analogue takes ~30s of single-core CPU.
package main

import (
	"context"
	"fmt"
	"log"

	"pcnn"
)

func main() {
	fw, err := pcnn.Deploy("AlexNet", "TX1", pcnn.VideoSurveillance(60))
	if err != nil {
		log.Fatal(err)
	}

	// Offline compilation: batch size, per-layer kernels, optSM/optTLP.
	fmt.Printf("batch=%d predicted=%.1fms budgetMet=%v tuningLevels=%d\n",
		fw.Plan.Batch, fw.Plan.PredictedMS, fw.Plan.BudgetMet, len(fw.Table.Entries))

	// The P-CNN scheduler's outcome: it perforates conv layers just enough
	// to meet the frame deadline that every baseline misses on TX1.
	out, err := fw.Outcome()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P-CNN: response=%.1fms (deadline %.1fms) energy=%.3fJ/image SoC=%.3f deadlineMet=%v\n",
		out.ResponseMS, fw.Task.Deadline(), out.EnergyPerImageJ, out.SoC, out.MeetsDeadline)

	// Serve real frames: one hand-flushed batch of 32 runs at the base
	// level, the most aggressive one within the entropy threshold
	// (escalation is off, so the frame deadline cannot push it deeper).
	srv, err := fw.Serve(pcnn.ServeConfig{MaxBatch: 32, DisableDegrade: true, ManualFlush: true})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	defer srv.Close(ctx)
	lab := pcnn.NewLab(1)
	futs := make([]*pcnn.Future, 32)
	for i := range futs {
		if futs[i], err = srv.SubmitInput(lab.Test.Sample(i)); err != nil {
			log.Fatal(err)
		}
	}
	srv.Flush()
	var res pcnn.ServeResult
	for _, f := range futs {
		if res, err = f.Wait(ctx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("served %d frames in one batch at tuning level %d, mean output entropy %.3f nats; the next batch runs at level %d\n",
		len(futs), res.Level, res.Entropy, srv.Level())
}
