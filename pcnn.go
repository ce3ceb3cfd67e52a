// Package pcnn is the public API of the P-CNN reproduction — a
// user-satisfaction-aware CNN inference framework across GPU
// microarchitectures (Song et al., HPCA 2017), rebuilt in pure Go on a
// simulated GPU substrate.
//
// The typical flow mirrors the paper's Fig 10:
//
//	dev := pcnn.PlatformByName("TX1")
//	task := pcnn.VideoSurveillance(60)
//	fw, _ := pcnn.New("AlexNet", dev, task)
//	fw.CompileOffline()                    // batch + kernels + optSM/optTLP
//	lab := pcnn.NewLab(1)
//	net, _ := lab.TrainNet("AlexNet")      // trained scaled analogue
//	fw.AttachScaled(net, lab.Test.X)       // entropy-based accuracy tuning
//	outcomes, _ := fw.Evaluate()           // six scheduler rows, Fig 13–15 order
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package pcnn

import (
	"io"
	"net/http"

	"pcnn/internal/compile"
	"pcnn/internal/core"
	"pcnn/internal/fault"
	"pcnn/internal/fleet"
	"pcnn/internal/gpu"
	"pcnn/internal/nn"
	"pcnn/internal/obs"
	"pcnn/internal/satisfaction"
	"pcnn/internal/sched"
	"pcnn/internal/serve"
	"pcnn/internal/tensor"
)

// Re-exported types. Aliases keep the internal packages private while
// letting callers hold and pass the framework's values.
type (
	// Device describes one GPU microarchitecture (Table II / Table VI).
	Device = gpu.Device
	// Task describes a CNN application's requirements (Section II.B).
	Task = satisfaction.Task
	// TaskClass is the interactive / real-time / background taxonomy.
	TaskClass = satisfaction.TaskClass
	// NetShape is a full-size network shape table (AlexNet, VGGNet,
	// GoogLeNet) consumed by the analytical models.
	NetShape = nn.NetShape
	// Network is an executable (trainable, perforable) scaled network.
	Network = nn.Sequential
	// Dataset is a labelled sample set for the executable networks.
	Dataset = nn.Dataset
	// Plan is an offline-compilation result: batch, tuned kernel and
	// (optSM, optTLP) per layer.
	Plan = compile.Plan
	// Framework is P-CNN deployed for one (network, device, task).
	Framework = core.Framework
	// Lab bundles the synthetic task and training recipe behind the
	// accuracy experiments.
	Lab = core.Lab
	// Outcome is a scheduler's simulated result: response time, energy,
	// entropy and SoC.
	Outcome = sched.Outcome
	// Scenario fixes what the scheduler suite compares on.
	Scenario = sched.Scenario
	// TuningPoint is one transferred accuracy-tuning level.
	TuningPoint = compile.TuningPoint
	// Server is the online inference server (Framework.Serve).
	Server = serve.Server
	// ServeConfig tunes the online server's batching, worker pool and
	// degradation policy.
	ServeConfig = serve.Config
	// ServeResult is one served request's outcome (latency breakdown,
	// energy, entropy, SoC, deadline verdict).
	ServeResult = serve.Result
	// ServeSnapshot is a point-in-time summary of the serving metrics
	// (percentile latency, miss rate, mean SoC, degradation counters).
	ServeSnapshot = serve.Snapshot
	// Future resolves to a ServeResult once the request's batch executed.
	Future = serve.Future
	// MetricsRegistry holds a server's counters, gauges and histograms
	// (Server.Metrics) and renders Prometheus text format.
	MetricsRegistry = obs.Registry
	// ServeTrace is one request's recorded lifecycle (Server.Traces):
	// submit → coalesce → escalate → execute → resolve with per-stage
	// durations.
	ServeTrace = obs.Trace
	// LayerProfile is one layer's slice of a simulated plan execution —
	// predicted vs simulated time, energy, utilizations
	// (Server.LayerProfile, Plan.ProfileResults).
	LayerProfile = compile.LayerProfile
	// FaultSpec declares a seeded fault-injection scenario (rates per
	// kind, slow factor, corruption nats, clock-skew bound). The zero
	// value injects nothing; see ParseFaultSpec for the flag grammar.
	FaultSpec = fault.Spec
	// FaultInjector draws deterministic faults from a FaultSpec; attach
	// one via ServeConfig.Faults. A nil injector is the disabled state.
	FaultInjector = fault.Injector
	// FaultCounts tallies injected faults per kind (Server.FaultCounts).
	FaultCounts = fault.Counts
	// LaunchError is the typed kernel-launch failure the GPU layer and the
	// serving executor surface; Injected marks chaos-injected failures.
	LaunchError = gpu.LaunchError
	// Fleet is the distributed serving tier: consistent-hash routing with
	// capacity-weighted virtual nodes, health-driven ejection, hedged
	// retries and hot-swappable model deployments across replicas.
	Fleet = fleet.Fleet
	// FleetConfig tunes the fleet router (policy, hedging, clock
	// injection).
	FleetConfig = fleet.Config
	// FleetPolicy selects how fallback replicas are ordered.
	FleetPolicy = fleet.Policy
	// FleetRegistry is the versioned copy-on-write model/plan store behind
	// zero-downtime hot-swap.
	FleetRegistry = fleet.Registry
	// FleetDeployment is one model version compiled for every platform the
	// fleet spans.
	FleetDeployment = fleet.Deployment
	// FleetReplica is one serving target the fleet routes to.
	FleetReplica = fleet.Replica
	// FleetNode is an in-process replica: one Server per registered model.
	FleetNode = fleet.Node
	// FleetNodeConfig shapes the servers a fleet node builds.
	FleetNodeConfig = fleet.NodeConfig
	// FleetFuture resolves a routed (possibly hedged) fleet request.
	FleetFuture = fleet.FleetFuture
	// FleetTicket is one submitted request leg (memoizing Wait).
	FleetTicket = fleet.Ticket
	// FleetSnapshot is the GET /fleet status view.
	FleetSnapshot = fleet.FleetSnapshot
	// ServePrediction is one server's Eq 12 serving forecast
	// (Server.Predict, the GET /predict payload core).
	ServePrediction = serve.Prediction
	// FleetModelPrediction is the fleet daemon's GET /predict wire payload:
	// the best replica's Eq 12 forecast with fleet-aggregated capacity.
	FleetModelPrediction = fleet.ModelPrediction
	// Precision selects the host GEMM number format (fp32, fp16-storage
	// or symmetric int8) — an accuracy-study axis of the tensor engine.
	Precision = tensor.Precision
	// UnknownPrecisionError reports an unrecognized precision name, so
	// ParsePrecision failures are distinguishable with errors.As — the
	// same pattern as UnknownPlatformError and UnknownNetworkError.
	UnknownPrecisionError = tensor.UnknownPrecisionError
)

// Host GEMM precisions.
const (
	// PrecisionFP32 is full single precision, the default.
	PrecisionFP32 = tensor.FP32
	// PrecisionFP16 rounds GEMM operands through IEEE half storage.
	PrecisionFP16 = tensor.FP16
	// PrecisionInt8 runs forward GEMMs in symmetric 8-bit integers.
	PrecisionInt8 = tensor.Int8
)

// ParsePrecision converts a precision name ("fp32", "fp16", "int8") to
// a Precision; unknown names yield an *UnknownPrecisionError.
func ParsePrecision(s string) (Precision, error) { return tensor.ParsePrecision(s) }

// Fleet fallback policies.
const (
	// FleetPolicyRing walks the consistent-hash ring for fallbacks.
	FleetPolicyRing = fleet.PolicyRing
	// FleetPolicyLeastSlack orders fallbacks by predicted completion.
	FleetPolicyLeastSlack = fleet.PolicyLeastSlack
)

// NewFleet assembles a fleet router over a shared model registry.
func NewFleet(reg *FleetRegistry, cfg FleetConfig) *Fleet { return fleet.New(reg, cfg) }

// NewFleetRegistry returns an empty versioned model registry.
func NewFleetRegistry() *FleetRegistry { return fleet.NewRegistry() }

// NewFleetNode builds an in-process replica identity on a platform,
// serving whatever the registry holds.
func NewFleetNode(id, platform string, reg *FleetRegistry, cfg FleetNodeConfig) *FleetNode {
	return fleet.NewNode(id, platform, reg, cfg)
}

// CompileFleetDeployment compiles a model for a task on every named
// platform — the production path onto the fleet. dvfs additionally
// applies the DVFS frequency ladder (a distinguishable recompilation,
// useful for exercising hot-swap).
func CompileFleetDeployment(model string, task Task, platforms []string, dvfs bool) (*FleetDeployment, error) {
	return fleet.CompileDeployment(model, task, platforms, dvfs)
}

// NewFleetHandler wires the daemon's full HTTP API (POST /infer, GET
// /predict, GET /stats, GET /trace, GET /profile, GET /fleet, GET
// /healthz, GET /metrics, POST /swap, POST /busy) — the one mux cmd/pcnnd
// serves, with one node or many, and the e2e harness drives.
func NewFleetHandler(fl *Fleet) http.Handler { return fleet.Handler(fl) }

// Serving sentinel errors, re-exported for errors.Is.
var (
	// ErrServerClosed is returned by Server.Submit after Close.
	ErrServerClosed = serve.ErrServerClosed
	// ErrQueueFull is returned when admission control rejects a request.
	ErrQueueFull = serve.ErrQueueFull
	// ErrBreakerOpen fails a batch fast while the circuit breaker is open.
	ErrBreakerOpen = serve.ErrBreakerOpen
	// ErrExecTimeout fails a batch attempt that outran the execution
	// timeout.
	ErrExecTimeout = serve.ErrExecTimeout
	// ErrFaultInjected is the sentinel cause of injected failures
	// (errors.Is distinguishes chaos from genuine simulator errors).
	ErrFaultInjected = fault.ErrInjected
	// ErrDeadlineUnmeetable is slack-aware early rejection: admission
	// refuses a request whose predicted completion already exceeds its
	// deadline (ServeConfig.RejectUnmeetable).
	ErrDeadlineUnmeetable = serve.ErrDeadlineUnmeetable
	// ErrNoReplicas is returned by Fleet.Submit on an empty fleet.
	ErrNoReplicas = fleet.ErrNoReplicas
)

// ParseFaultSpec parses the -fault-spec grammar, comma-separated
// key=value terms:
//
//	seed=42,launch=0.05,slow=0.1,slowx=4,corrupt=0.02,nats=2,sat=0.01,skew=2.5
//
// The empty string is the disabled spec.
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.ParseSpec(s) }

// NewFaultInjector builds an injector for a spec — nil (and no error)
// when the spec injects nothing, which is directly usable as the
// disabled state.
func NewFaultInjector(spec FaultSpec) (*FaultInjector, error) { return fault.New(spec) }

// Task classes.
const (
	Interactive = satisfaction.Interactive
	RealTime    = satisfaction.RealTime
	Background  = satisfaction.Background
)

// Platforms returns the four evaluation devices of Table II
// (K20c, TitanX, GTX970m, TX1).
func Platforms() []*Device { return gpu.AllPlatforms() }

// PlatformByName returns the named device or nil.
func PlatformByName(name string) *Device { return gpu.PlatformByName(name) }

// Networks returns the three characterization network shapes.
func Networks() []*NetShape { return nn.AllNetShapes() }

// NetworkByName returns the named shape table or nil.
func NetworkByName(name string) *NetShape { return nn.NetShapeByName(name) }

// AgeDetection returns the paper's interactive evaluation task.
func AgeDetection() Task { return satisfaction.AgeDetection() }

// VideoSurveillance returns the real-time evaluation task at the given
// frame rate.
func VideoSurveillance(fps float64) Task { return satisfaction.VideoSurveillance(fps) }

// ImageTagging returns the background evaluation task.
func ImageTagging() Task { return satisfaction.ImageTagging() }

// EvaluationTasks returns the three Section V.C scenario tasks.
func EvaluationTasks() []Task { return satisfaction.EvaluationTasks() }

// InferTask classifies an application and infers its requirements
// (Section IV.A's user-input module).
func InferTask(name string, userFacing bool, frameRateHz float64) Task {
	return satisfaction.InferTask(name, userFacing, frameRateHz)
}

// New creates a P-CNN framework for the named network on a device for a
// task.
func New(netName string, dev *Device, task Task) (*Framework, error) {
	if NetworkByName(netName) == nil {
		return nil, &UnknownNetworkError{Name: netName}
	}
	return core.New(netName, dev, task)
}

// Compile runs cross-platform offline compilation directly (without a
// Framework) and returns the plan.
func Compile(net *NetShape, dev *Device, task Task) (*Plan, error) {
	return compile.Compile(net, dev, task)
}

// NewLab builds the synthetic-task accuracy laboratory.
func NewLab(seed int64) *Lab { return core.NewLab(seed) }

// SharedResult reports a spatial-multitasking co-run (Plan.SimulateShared).
type SharedResult = compile.SharedResult

// LoadPlan reads a plan previously written with Plan.Save.
func LoadPlan(r io.Reader) (*Plan, error) { return compile.LoadPlan(r) }

// Deploy is the one-call convenience path: it resolves the network and
// platform by name, compiles offline, trains the scaled analogue on the
// lab task, and attaches the accuracy tuner. Training takes a few seconds
// of CPU time.
func Deploy(netName, platformName string, task Task) (*Framework, error) {
	dev := PlatformByName(platformName)
	if dev == nil {
		return nil, &UnknownPlatformError{Name: platformName}
	}
	fw, err := New(netName, dev, task)
	if err != nil {
		return nil, err
	}
	if err := fw.CompileOffline(); err != nil {
		return nil, err
	}
	lab := NewLab(1)
	net, err := lab.TrainNet(netName)
	if err != nil {
		return nil, err
	}
	if err := fw.AttachScaled(net, lab.Test.X); err != nil {
		return nil, err
	}
	return fw, nil
}

// UnknownPlatformError reports an unrecognized platform name.
type UnknownPlatformError struct{ Name string }

// Error implements error.
func (e *UnknownPlatformError) Error() string {
	return "pcnn: unknown platform " + e.Name + " (want K20c, TitanX, GTX970m or TX1)"
}

// UnknownNetworkError reports an unrecognized network name, so Deploy and
// New failures are distinguishable from UnknownPlatformError with
// errors.As.
type UnknownNetworkError struct{ Name string }

// Error implements error.
func (e *UnknownNetworkError) Error() string {
	return "pcnn: unknown network " + e.Name + " (want AlexNet, VGGNet or GoogLeNet)"
}
