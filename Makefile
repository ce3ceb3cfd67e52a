GO ?= go
# OUT is the directory the BENCH_*.json generators (bench-serve, scenarios,
# soak-fleet) write into; bench-verify points it at a temp dir.
OUT ?= .

.PHONY: ci vet build build-arm64 build-portable build-bench test test-short race e2e soak-fleet bench profile-sim profile-serve profile-wire bench-gemm bench-serve bench-verify bench-verify-fast paper-verify fuzz fuzz-tail fuzz-blocked fuzz-fusedpack fuzz-predict fuzz-wire fuzz-mmpp chaos serve-smoke scenarios scenarios-smoke fleet-smoke

# ci is the gate every change must pass: static checks, full build, the
# arm64 cross-compile (the NEON micro-kernel's assembly and stubs only
# build under GOARCH=arm64, so amd64-only CI would never parse them), the
# riscv64 cross-compile (the no-SIMD configuration), the benchmark module's vet + build + tests against this tree's API, the tier-1 test
# suite, the race detector over the packages that own the sharded GEMM
# engine and the serving/scenario/fleet pipelines, the real-daemon e2e
# suite (short-mode capped), the scenario + fleet smoke grids, and the
# byte-for-byte regeneration of the two sub-second committed bench files.
ci: vet build build-arm64 build-portable build-bench test race e2e scenarios-smoke fleet-smoke bench-verify-fast

# vet also fails on any file gofmt would rewrite, and lists them.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

build:
	$(GO) build ./...

# build-arm64 cross-compiles the whole module for linux/arm64. It is the
# only gate exercising internal/tensor/kern8x8_arm64.{go,s} (the NEON 8x8
# micro-kernel; amd64 runs the AVX-512F 12x32 in kern12x32_amd64.s or the
# AVX2+FMA 6x16 in kern6x16_amd64.s) on an amd64 host — assembly errors
# there would otherwise surface only on real arm64 hardware. It compiles
# the kernel but no gate executes it: train.golden's rounding-class
# header pins its bits the first time an arm64 host runs tier-1.
build-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# build-portable cross-compiles and vets the configuration with no SIMD
# micro-kernel (kern8x8_other.go, `!amd64 && !arm64`: the 8x8, 6x16 and
# 12x32 tiles run the portable kernTile loop): the scalar 8x4 DefaultTile is the
# only blocked path there and the reason kern8x4 is kept, and no other
# gate parses it. Only amd64 has assembly for the elementwise kernels
# (vec_amd64.s); arm64 and riscv64 both run their portable Go twins
# (vec_other.go, `!amd64`), which build-arm64 and this target compile.
build-portable:
	GOOS=linux GOARCH=riscv64 $(GO) build ./... && GOOS=linux GOARCH=riscv64 $(GO) vet ./internal/tensor/

# build-bench vets, builds and tests the benchmark module (bench/, its own
# go.mod with `replace pcnn => ../`) against this tree, so an API or
# behaviour break against the frozen benchmark sources fails here instead
# of in the pipeline.
build-bench:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/tensor/ ./internal/nn/ ./internal/serve/ ./internal/obs/ \
		./internal/fault/ ./internal/scenario/ ./internal/workload/ ./internal/fleet/ \
		./internal/fleet/e2e/ ./internal/simdrive/ ./internal/runtimemgr/ ./internal/par/
	$(GO) test -race -count=1 -cpu 1,2 ./internal/scenario/ ./internal/fleet/ ./internal/nn/ \
		./internal/runtimemgr/ ./internal/tensor/ ./internal/par/ \
		-run 'TestMatrixSameSeedByteIdentical|TestRunMatrixMatchesSerialRuns|TestSoakGolden|TestTrainingGolden|TestConvBackwardShardedBitIdentical|TestCol2imRunsMatchGeneric|TestTunerTrialsMatchSerial|TestStripeSlabRegionsDisjoint|TestBlockedParallelWorkerCountInvariance|TestAVX512TileMatches6x16|TestDefaultEngineFollowsGOMAXPROCS|TestShardingLeavesNoGoroutines|TestChunksNested'
	$(GO) test -race -count=1 -cpu 1,2 ./internal/nn/ ./internal/serve/ \
		-run 'TestConcurrentInferenceSharedNet|TestConcurrentFirstInference|TestPlanExecutorConcurrentLevels|TestPlanExecutorComputesEachKeyOnce'

# e2e runs the real-daemon end-to-end suite: N pcnnd-equivalent HTTP
# daemons on loopback, an outer fleet of HTTPReplicas routing mixed-model
# traffic by live Eq 12 predictions, kill/restart churn, and fleet-wide
# request conservation. Short mode caps the churn iterations so the
# target stays ci-fast.
e2e:
	$(GO) test -short -count=1 ./internal/fleet/e2e/

# bench reproduces the numbers recorded in BENCH_gemm.json (the GEMM
# backends and each register tile's L1-resident rate) and times one
# sweep of the five full-size AlexNet convolutions at batch 1 on the
# default engine (BenchmarkConvSweepAlexNet, the conv_fullshape op), then
# one cold pass over the simulated side (scenario matrix + fleet soak +
# six-scheduler evaluation — the repository benchmark's sim_regen op), its
# two inner loops (the largest launch it simulates, AlexNet CONV1 at batch
# 256 on TX1, beside a many-wave TitanX launch; and kernel selection over
# AlexNet's GEMMs), and the serving data path's unit of work,
# PlanExecutor.Execute on a batch of 32 at levels 0/3/6/9/12 of the
# attached table (serve_forward's inner call; host time should fall with
# the level).
bench:
	$(GO) test -run='^$$' -bench='GEMM|MicroKernel|Backend|Conv1x1|Im2col|ConvSweepAlexNet' -benchmem ./internal/tensor/ ./internal/nn/
	$(GO) test -run='^$$' -bench='SimRegenPass' -benchtime=10x .
	$(GO) test -run='^$$' -bench='SimulateFullGrid|ManyWaves' -benchmem ./internal/gpu/
	$(GO) test -run='^$$' -bench='Select$$' -benchmem ./internal/kernels/
	$(GO) test -run='^$$' -bench='ExecuteLevels' -benchtime=500x -cpu 1 .

# profile-sim writes CPU and allocation profiles of that pass to
# $(OUT)/cpu.prof and $(OUT)/mem.prof (inspect with
# `go tool pprof -sample_index=alloc_space $(OUT)/pcnn.test $(OUT)/mem.prof`).
profile-sim:
	$(GO) test -run='^$$' -bench='SimRegenPass' -benchtime=15x -o $(OUT)/pcnn.test \
		-cpuprofile $(OUT)/cpu.prof -memprofile $(OUT)/mem.prof .

# bench-gemm reproduces the GEMM rows recorded in BENCH_gemm.json: the
# naive-oracle-vs-blocked serial pairs (acceptance shape VGG_conv2_1), the
# pool-sharded blocked backend, the default engine (the same path under
# its other name), the int8 forward path, the batch-folded vs per-sample
# AlexNet-S conv GEMMs (sub-millisecond, hence their own iteration count),
# the fused im2col→pack conv comparison and each register tile's
# L1-resident GFLOP/s (BenchmarkMicroKernel).
bench-gemm:
	$(GO) test -run='^$$' -bench='GEMMSerial|GEMMBlocked|GEMMBlockedParallel|GEMMDefault|GEMMInt8' -benchmem -benchtime=5x ./internal/tensor/
	$(GO) test -run='^$$' -bench='GEMMFolded' -benchtime=200x -count=5 -cpu 1 ./internal/tensor/
	$(GO) test -run='^$$' -bench='ConvFusedPack' -benchmem -benchtime=5x ./internal/nn/
	$(GO) test -run='^$$' -bench='MicroKernel' -count=5 -cpu 1 ./internal/tensor/

# profile-serve is profile-sim for the host data path: CPU and allocation
# profiles of Execute at the served base level 9, batch 32.
profile-serve:
	$(GO) test -run='^$$' -bench='ExecuteLevels/level9' -benchtime=3000x -cpu 1 -o $(OUT)/pcnn.test \
		-cpuprofile $(OUT)/cpu.prof -memprofile $(OUT)/mem.prof .

# profile-wire is profile-sim for the /infer hop: CPU and allocation
# profiles of one routed request (outer Fleet → HTTPReplica → an in-memory
# http.RoundTripper → fleet.Handler → Node), so they show this repository's
# code rather than the kernel's sockets.
profile-wire:
	$(GO) test -run='^$$' -bench='WireRoundTrip' -benchtime=200000x -o $(OUT)/fleet.test \
		-cpuprofile $(OUT)/cpu.prof -memprofile $(OUT)/mem.prof ./internal/fleet/

fuzz: fuzz-tail
	$(GO) test -run='^$$' -fuzz=FuzzMatMulShapes -fuzztime=30s ./internal/tensor/

# fuzz-tail feeds arbitrary float32 bit patterns, row widths and start
# offsets to the elementwise kernels of the forward's tail (ReLU, the
# pooling maxes, the Lerp row resampler) and requires the AVX2 path to
# equal its portable twin bit for bit (NaN for NaN); the seeds run as
# part of `test`.
fuzz-tail:
	$(GO) test -run='^$$' -fuzz=FuzzTailKernels -fuzztime=30s ./internal/tensor/

# fuzz-blocked drives random shapes through the blocked backend against
# the naive kernels; the committed seed corpus under
# internal/tensor/testdata runs as part of `test`.
fuzz-blocked:
	$(GO) test -run='^$$' -fuzz=FuzzBlockedVsNaive -fuzztime=30s ./internal/tensor/

# fuzz-fusedpack drives random conv geometries through the fused
# im2col→pack-B path against the two-step materialize-then-pack lowering,
# requiring bit-identical packed panels, then random batch-folded
# geometries (panels straddling images) against the same reference and
# the batch-1 oracle, then random perforated geometries (ascending kept
# rows/columns, random KC slabs and panel shards) against materialize +
# packBRange byte for byte (the seed corpora run as part of `test`).
fuzz-fusedpack:
	$(GO) test -run='^$$' -fuzz=FuzzFusedPackVsTwoStep -fuzztime=30s ./internal/tensor/
	$(GO) test -run='^$$' -fuzz=FuzzFoldedIm2col -fuzztime=30s ./internal/tensor/
	$(GO) test -run='^$$' -fuzz=FuzzSampledPackVsTwoStep -fuzztime=30s ./internal/tensor/

# fuzz-predict hammers the Eq 12 time model's monotonicity and anchor
# properties (the committed seed corpus runs as part of `test`).
fuzz-predict:
	$(GO) test -run='^$$' -fuzz=FuzzPredictMS -fuzztime=30s ./internal/compile/

# fuzz-wire checks the /infer codec against encoding/json: appendResult
# writes json.Marshal's bytes, parseResult inverts it bit for bit and agrees
# with json.Unmarshal on arbitrary bytes (the seeds run as part of `test`).
fuzz-wire:
	$(GO) test -run='^$$' -fuzz=FuzzResultWire -fuzztime=30s ./internal/fleet/

# fuzz-mmpp hammers the MMPP arrival process: non-negative finite gaps,
# bounded silent-state dwell, finite mean-rate blend (the committed seed
# corpus runs as part of `test`).
fuzz-mmpp:
	$(GO) test -run='^$$' -fuzz=FuzzMMPPArrivals -fuzztime=30s ./internal/workload/

# chaos runs the seeded fault-injection suite — deterministic injector
# streams, the serve-level chaos scenarios, and the hardening regressions
# (drain-on-Close, breaker lifecycle, soak conservation, submit accounting,
# the future-completion contract, the controller against its reference
# model, its climb back to base after a calibration, and lock-free
# concurrent inference on one shared network at one and two Ps)
# — under the race detector.
chaos:
	$(GO) test -race -count=1 ./internal/fault/ \
		-run 'TestChaos|TestDeterministicStreams|TestStreamIndependence'
	$(GO) test -race -count=1 ./internal/serve/ \
		-run 'TestNoResolutionAfterCloseDrain|TestBreakerLifecycleServing|TestSoakConservation|TestExecTimeoutFailsAttempt'
	$(GO) test -race -count=1 -cpu 1,2 ./internal/serve/ \
		-run 'TestSubmitAccountingRace|TestCompletionContract|TestControllerMatchesModel|TestControllerRecoversUpToBase|TestServerRecoversToBaseAfterCalibration|TestPlanExecutorConcurrentLevels'
	$(GO) test -race -count=1 -cpu 1,2 ./internal/nn/ -run 'TestConcurrentInferenceSharedNet'

# serve-smoke gates the serving pipeline twice: the closed-loop generator
# must serve every accepted request with positive SoC, and the virtual-clock
# serve grid must show batching engaged at capacity
# (mean batch > 1) with the 2x-overload miss rate bounded under 50%.
serve-smoke:
	$(GO) run ./cmd/pcnnd -net AlexNet -platform TX1 -task surveillance \
		-load closed -n 100 -smoke
	$(GO) run ./cmd/pcnnd -scenarios - -grid serve -net AlexNet -platform TX1 \
		-task surveillance -n 300 -seed 42 -smoke >/dev/null

# bench-serve reproduces BENCH_serve.json: the scenario engine's serve
# grid, one surveillance stream at 0.5x / 1x / 2x of one worker's
# steady-state capacity on the virtual clock, byte-reproducible at the
# fixed seed.
bench-serve:
	$(GO) run ./cmd/pcnnd -scenarios $(OUT)/BENCH_serve.json -grid serve -net AlexNet \
		-platform TX1 -task surveillance -n 300 -seed 42

# bench-verify-fast reruns the two sub-second virtual-clock generators
# (bench-serve, scenarios) into a temp dir and requires BENCH_serve.json and
# BENCH_scenarios.json byte-identical to the committed files;
# bench-verify adds the full 1,000,000-request soak-fleet (~1 min), which
# is why only the fast half rides in ci. Each cmp exits on its own: inside
# an && list `set -e` is off and a loop's status is its last command's, so
# a differing first file would otherwise pass.
bench-verify-fast:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	$(MAKE) --no-print-directory bench-serve scenarios OUT=$$tmp && \
	for f in BENCH_serve.json BENCH_scenarios.json; do \
		cmp $$tmp/$$f $$f || exit 1; done && echo "bench-verify-fast: 2 files byte-identical"

bench-verify: bench-verify-fast paper-verify
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	$(MAKE) --no-print-directory soak-fleet OUT=$$tmp && \
	cmp $$tmp/BENCH_fleet.json BENCH_fleet.json && echo "bench-verify: BENCH_fleet.json byte-identical"

# paper-verify regenerates the paper's reproduced outputs into a temp dir
# and requires both byte-identical to the committed files:
# docs/characterize.txt (Section III: Tables II-VI, Figs 4-9; also pinned in
# tier-1 by cmd/characterize's TestCharacterizeGolden) and
# docs/experiments.txt (Section V: Table I, Figs 13-16; trains the scaled
# networks, so ~1 min, which is why it rides in bench-verify, not ci).
paper-verify:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	$(GO) run ./cmd/characterize > $$tmp/characterize.txt && \
	$(GO) run ./cmd/experiments > $$tmp/experiments.txt && \
	for f in characterize.txt experiments.txt; do \
		cmp $$tmp/$$f docs/$$f || exit 1; done && echo "paper-verify: 2 files byte-identical"

# scenarios regenerates the committed heterogeneous-fleet matrix
# (BENCH_scenarios.json): platforms × arrival
# processes × chaos, mixed archetypes, bit-for-bit reproducible at the
# fixed seed.
scenarios:
	$(GO) run ./cmd/pcnnd -scenarios $(OUT)/BENCH_scenarios.json -seed 42

# scenarios-smoke runs the small scenario grid to stdout as a CI gate.
scenarios-smoke:
	$(GO) run ./cmd/pcnnd -scenarios - -grid smoke -seed 42 >/dev/null

# soak-fleet regenerates the committed fleet soak (BENCH_fleet.json) at
# full scale: ≥1,000,000 requests per grid row folded into fixed-size
# histograms as they resolve (flat driver memory), replica counts {1,3,5} ×
# hedging {off,on} over a mixed AlexNet+VGG+GoogLeNet trace with a
# mid-soak hot-swap, byte-for-byte reproducible at the fixed seed.
soak-fleet:
	$(GO) run ./cmd/pcnnd -fleet-bench $(OUT)/BENCH_fleet.json -requests 1000000 -seed 42

# fleet-smoke runs a seconds-long fleet soak as a CI gate: it fails unless
# every row passes fleet.SoakReport.Check — request conservation, one
# mid-soak hot-swap attributing zero failures, and median latency falling
# as replicas rise.
fleet-smoke:
	$(GO) run ./cmd/pcnnd -fleet-bench - -fleet-smoke -seed 42 >/dev/null
