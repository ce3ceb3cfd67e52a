package main

// The benchmark's metric tables. BENCHMARK.json at the repo root lists the
// same names, units, directions and bounds; TestManifestMatches keeps the
// two in step.

// Workload names, in the order BENCHMARK.json lists them.
const (
	wServeForward  = "serve_forward"
	wFleetWire     = "fleet_wire"
	wConvFullshape = "conv_fullshape"
	wSimRegen      = "sim_regen"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	// Owner is the one workload whose traced run measures a per-layer
	// metric; every other workload reports it as 0 (that layer idles, or
	// is not probed, there). Empty means every workload measures it.
	Owner string
}

// endToEnd is printed by every --trace 0 run. Host-time metrics come from
// the workload's window; sim_* metrics are simulated-time aggregates of the
// scenario matrix at the run's seed and do not depend on the workload.
//
// The two gated speeds are the fast ends of their distributions — the rate
// of the window's second-best tenth of slices, the latency one op in ten
// beats — because on a shared host interference only ever slows an op
// down: the fast end is what the code does, the middle is what the code
// and the neighbours do (see README.md, "Why the fast end"). The medians
// are the per-layer throughput.p50_ops_s and latency.p50_ms.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_p90_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p10_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "sim_soc_mean", Unit: "SoC", Better: "higher", Bound: 0.08},
	{Name: "sim_ontime_frac", Unit: "ratio", Better: "higher", Bound: 0.03},
	{Name: "sim_energy_j_per_image", Unit: "J", Better: "lower", Bound: 0.10},
	{Name: "sim_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is printed by every --trace 1 run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(owner, unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better, Owner: owner})
		}
	}
	// Every workload: the cost behind its throughput, and its latency tail.
	add("", "ms", "lower", "process.cpu_ms_per_op", "process.gc_pause_ms", "latency.p50_ms", "latency.p90_ms", "latency.p99_ms")
	add("", "1/s", "higher", "throughput.p50_ops_s")
	add("", "KB", "lower", "process.alloc_kb_per_op")
	add("", "MB", "lower", "process.peak_rss_mb")
	add("", "count", "lower", "process.allocs_per_op")
	add("", "count", "higher", "latency.samples")
	add("", "ratio", "lower", "bench.trace_overhead_frac")

	// conv_fullshape: tensor and nn at the paper's dimensions.
	add(wConvFullshape, "ms", "lower",
		"tensor.gemm.alexnet_conv1.ms", "tensor.gemm.alexnet_conv2.ms", "tensor.gemm.alexnet_conv3.ms",
		"tensor.gemm.alexnet_conv4.ms", "tensor.gemm.alexnet_conv5.ms",
		"tensor.gemm.vgg_conv2_1.ms", "tensor.gemm.vgg_conv4_1.ms", "tensor.gemm.fc_b32.ms",
		"tensor.gemm.blocked.alexnet_conv2.ms", "tensor.gemm.int8.alexnet_conv2.ms", "tensor.gemm.fp16.alexnet_conv2.ms",
		"nn.conv.alexnet_conv1.ms", "nn.conv.alexnet_conv2.ms", "nn.conv.alexnet_conv3.ms",
		"nn.conv.alexnet_conv4.ms", "nn.conv.alexnet_conv5.ms", "nn.conv.sweep.p90_ms",
		"nn.conv.perforated.alexnet_conv2.ms", "nn.conv.googlenet_1x1.ms")
	add(wConvFullshape, "GFLOP/s", "higher", "tensor.gemm.alexnet_conv.gflops")
	add(wConvFullshape, "ratio", "lower", "nn.conv.overhead_frac")

	// serve_forward: the scaled network, its training, and the batching path.
	add(wServeForward, "ms", "lower",
		"tensor.gemm.scaled_conv_b32.ms", "tensor.gemm.transb.dw.ms",
		"nn.alexnet_s.forward_b32.ms", "nn.alexnet_s.forward_b1.ms",
		"nn.alexnet_s.layer.CONV1.ms", "nn.alexnet_s.layer.CONV2.ms", "nn.alexnet_s.layer.CONV3.ms",
		"nn.alexnet_s.layer.CONV4.ms", "nn.alexnet_s.layer.CONV5.ms", "nn.alexnet_s.layer.FC6.ms",
		"nn.alexnet_s.layer.FC8.ms", "nn.alexnet_s.layer.other.ms", "nn.alexnet_s.train_step_b32.ms",
		"serve.execute.b32.ms", "serve.queue_wait.p50_ms", "serve.self.p50_ms",
		"serve.stage.submit.p50_ms", "serve.stage.coalesce.p50_ms", "serve.stage.escalate.p50_ms",
		"serve.stage.execute.p50_ms", "serve.stage.resolve.p50_ms")
	add(wServeForward, "count", "lower", "nn.alexnet_s.forward_b32.allocs")
	add(wServeForward, "KB", "lower", "nn.alexnet_s.forward_b32.alloc_kb")
	add(wServeForward, "s", "lower", "core.lab.train.s", "runtimemgr.attach.s")
	add(wServeForward, "count", "higher", "serve.batch.mean")
	add(wServeForward, "ns", "lower", "serve.submit.ns")

	// fleet_wire: the control plane.
	add(wFleetWire, "ms", "lower",
		"serve.request.p50_ms", "serve.request.p99_ms",
		"fleet.inproc.request.p50_ms", "fleet.wire.roundtrip.p50_ms", "fleet.handler.infer.p50_ms",
		"fleet.wire.self.p50_ms", "fleet.predict.get.p50_ms")
	add(wFleetWire, "ns", "lower", "serve.predict.ns", "compile.predict_ms.ns", "fleet.submit.ns", "fleet.ring.owner.ns")
	add(wFleetWire, "count", "lower", "fleet.predict.refresh.count")
	add(wFleetWire, "ratio", "lower", "fleet.hedge.frac")

	// sim_regen: the simulated side.
	add(wSimRegen, "ms", "lower",
		"compile.compile36.ms", "gpu.simulate36.ms", "sched.evaluate.ms", "scenario.matrix.ms", "fleet.soak.ms")
	add(wSimRegen, "count", "lower", "gpu.simulate36.launches")
	add(wSimRegen, "1/s", "higher", "fleet.soak.sim_req_per_s")
	add(wSimRegen, "ns", "lower", "workload.arrivals.next.ns")
	return defs
}
