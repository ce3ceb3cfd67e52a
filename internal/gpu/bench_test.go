package gpu

import "testing"

// BenchmarkSimulateSmallGrid measures the fluid DES on a single-wave
// launch (the tuner's inner loop).
func BenchmarkSimulateSmallGrid(b *testing.B) {
	d := K20c()
	k := Kernel{
		Name: "bench", GridSize: 24, BlockSize: 256, RegsPerThread: 79,
		SharedMemPerBlock: 8468, FMAInsts: 19200, OtherInsts: 11000, GlobalBytes: 2464,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Simulate(k, DefaultLaunch()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateManyWaves measures a batched launch with thousands of
// CTAs draining through the device.
func BenchmarkSimulateManyWaves(b *testing.B) {
	d := TitanX()
	k := Kernel{
		Name: "bench", GridSize: 6050, BlockSize: 128, RegsPerThread: 120,
		SharedMemPerBlock: 12544, FMAInsts: 23232, OtherInsts: 12000, GlobalBytes: 2200,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Simulate(k, DefaultLaunch()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOccupancy measures the occupancy calculator.
func BenchmarkOccupancy(b *testing.B) {
	d := K20c()
	k := Kernel{BlockSize: 256, RegsPerThread: 79, SharedMemPerBlock: 8468}
	for i := 0; i < b.N; i++ {
		if d.OccupancyFor(k).CTAs == 0 {
			b.Fatal("no residency")
		}
	}
}
