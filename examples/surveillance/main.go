// Video surveillance — the paper's real-time task (Section V.C). Each
// frame must be classified inside the 60 FPS frame interval (16.7ms). On
// the Jetson TX1 every conventional scheduler misses this deadline even
// without batching; P-CNN meets it by perforating convolutional layers,
// and its run-time calibration backs the approximation off when the scene
// gets hard and returns to it once the scene clears.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"

	"pcnn"
)

func main() {
	log.SetFlags(0)
	task := pcnn.VideoSurveillance(60)

	log.Print("deploying AlexNet on TX1 (trains the scaled analogue, ≈30s)…")
	fw, err := pcnn.Deploy("AlexNet", "TX1", task)
	if err != nil {
		log.Fatal(err)
	}

	// 1. The deadline story: baselines vs P-CNN.
	outcomes, err := fw.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n60 FPS deadline = %.2fms on TX1:\n", task.Deadline())
	for _, o := range outcomes {
		verdict := "MEETS deadline"
		if !o.MeetsDeadline {
			verdict = "misses deadline"
		}
		fmt.Printf("  %-7s response=%6.2fms  %s  (SoC %.3f)\n", o.Scheduler, o.ResponseMS, verdict, o.SoC)
	}

	// 2. The calibration story: easy frames (the ones the full network is
	// ≥ 90% sure of), a hard scene (heavy sensor noise), then easy frames
	// again. The server starts at its base level, backs off when a batch's
	// output uncertainty crosses the threshold, and climbs back after a
	// streak of calm batches. Escalation is off, so only entropy moves the
	// level, and each batch is flushed by hand so it holds one group.
	const frames = 16
	srv, err := fw.Serve(pcnn.ServeConfig{MaxBatch: frames, DisableDegrade: true, ManualFlush: true})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	defer srv.Close(ctx)
	test := pcnn.NewLab(1).Test
	var easy []int
	for i, p := range fw.Scaled.Predict(test.X) {
		if slices.Max(p) >= 0.9 {
			easy = append(easy, i)
		}
	}
	hardRng := rand.New(rand.NewSource(42))
	fmt.Printf("\nstreaming batches of %d frames (base tuning level %d of %d):\n",
		frames, srv.Level(), len(fw.Table.Entries)-1)
	for i := 0; i < 22; i++ {
		hard := i >= 4 && i < 6
		futs := make([]*pcnn.Future, frames)
		for j := range futs {
			x := test.Sample(easy[(i*frames+j)%len(easy)])
			if hard {
				x = x.Clone()
				for k := range x.Data {
					x.Data[k] = x.Data[k]*0.2 + float32(hardRng.NormFloat64())*0.5
				}
			}
			if futs[j], err = srv.SubmitInput(x); err != nil {
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
		snap := srv.Stats()
		fmt.Printf("  batch %2d (hard=%-5v): entropy=%.3f at level %d, next level %d  calibrations=%d recoveries=%d\n",
			i, hard, res.Entropy, res.Level, srv.Level(), snap.Calibrations, snap.Recoveries)
	}
}
