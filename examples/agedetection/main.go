// Age detection — the paper's interactive task (Section V.C). A user
// submits a selfie; the app must respond within 100ms to feel instant and
// is abandoned past 3s. The example deploys the task on all four
// platforms and compares the scheduler suite: the energy-efficient
// scheduler's batching makes it unusable (it would wait for 255 more
// selfies), while P-CNN trades imperceptible accuracy for the lowest
// energy per request.
package main

import (
	"fmt"
	"log"

	"pcnn"
)

func main() {
	log.SetFlags(0)
	task := pcnn.AgeDetection()
	fmt.Printf("task %s: imperceptible ≤ %.0fms, abandoned ≥ %.0fms, entropy budget %.2f nats\n\n",
		task.Name, task.TiMS, task.TtMS, task.EntropyThreshold)

	// Train the scaled analogue once; the tuning table is architecture-
	// independent and transfers to every platform.
	log.Print("training scaled AlexNet (≈15s single-core)…")
	lab := pcnn.NewLab(1)
	net, err := lab.TrainNet("AlexNet")
	if err != nil {
		log.Fatal(err)
	}

	for _, dev := range pcnn.Platforms() {
		fw, err := pcnn.New("AlexNet", dev, task)
		if err != nil {
			log.Fatal(err)
		}
		if err := fw.CompileOffline(); err != nil {
			log.Fatal(err)
		}
		if err := fw.AttachScaled(net, lab.Test.X); err != nil {
			log.Fatal(err)
		}

		outcomes, err := fw.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s):\n", dev.Name, dev.Class)
		fmt.Printf("  %-9s %12s %10s %9s %9s\n", "scheduler", "response(ms)", "J/image", "SoC_time", "SoC")
		for _, o := range outcomes {
			fmt.Printf("  %-9s %12.2f %10.4f %9.2f %9.3f\n",
				o.Scheduler, o.ResponseMS, o.EnergyPerImageJ, o.SoCTime, o.SoC)
		}
		fmt.Println()
	}
}
