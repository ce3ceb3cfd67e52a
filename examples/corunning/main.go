// Co-running and DVFS — the two extensions the paper motivates but leaves
// open. The resource model frees maxSM−optSM SMs per layer; instead of
// power gating them, this example (1) donates them to a background
// image-tagging co-runner (spatial multitasking, Section III.D.2), and
// (2) burns the interactive task's imperceptible-region slack with
// frequency scaling (Fig 3's energy argument).
package main

import (
	"fmt"
	"log"

	"pcnn"
)

func main() {
	log.SetFlags(0)
	dev := pcnn.PlatformByName("K20c")
	task := pcnn.AgeDetection()

	fg, err := pcnn.Compile(pcnn.NetworkByName("AlexNet"), dev, task)
	if err != nil {
		log.Fatal(err)
	}
	bg, err := pcnn.Compile(pcnn.NetworkByName("GoogLeNet"), dev, pcnn.ImageTagging())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Spatial sharing: AlexNet (interactive, batch 1) frees most of
	// the K20c's 13 SMs per layer; GoogLeNet tagging kernels ride along.
	_, alone, err := fg.Simulate(true)
	if err != nil {
		log.Fatal(err)
	}
	shared, err := fg.SimulateShared(bg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spatial sharing on %s:\n", dev.Name)
	fmt.Printf("  foreground alone      %.2f ms\n", alone.TimeMS)
	fmt.Printf("  foreground shared     %.2f ms (worst layer slowdown %.2fx)\n",
		shared.Aggregate.TimeMS, shared.FgSlowdownMax)
	fmt.Printf("  background progress   %d thread blocks completed for free\n", shared.BgCTAs)

	// 2. DVFS: the 100ms interactive budget dwarfs the ~2.5ms inference;
	// the imperceptible region has no reward for finishing early.
	frac, err := fg.ApplyDVFS()
	if err != nil {
		log.Fatal(err)
	}
	_, scaled, err := fg.Simulate(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDVFS inside the imperceptible region (budget %.0f ms):\n", task.TiMS)
	fmt.Printf("  full clock   %.2f ms, %.4f J\n", alone.TimeMS, alone.EnergyJ)
	fmt.Printf("  %.0f%% clock    %.2f ms, %.4f J (%.0f%% energy saved, still imperceptible)\n",
		frac*100, scaled.TimeMS, scaled.EnergyJ, (1-scaled.EnergyJ/alone.EnergyJ)*100)
}
