package pcnn

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPlatformsAndNetworks(t *testing.T) {
	if got := len(Platforms()); got != 4 {
		t.Fatalf("Platforms() = %d, want 4", got)
	}
	if got := len(Networks()); got != 3 {
		t.Fatalf("Networks() = %d, want 3", got)
	}
	if PlatformByName("TX1") == nil || NetworkByName("VGGNet") == nil {
		t.Fatalf("lookups failed")
	}
}

func TestEvaluationTasksClasses(t *testing.T) {
	tasks := EvaluationTasks()
	if len(tasks) != 3 {
		t.Fatalf("EvaluationTasks() = %d, want 3", len(tasks))
	}
	want := []TaskClass{Interactive, RealTime, Background}
	for i, task := range tasks {
		if task.Class != want[i] {
			t.Errorf("task %d class %v, want %v", i, task.Class, want[i])
		}
	}
}

func TestCompileFacade(t *testing.T) {
	plan, err := Compile(NetworkByName("AlexNet"), PlatformByName("K20c"), AgeDetection())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Batch != 1 || len(plan.Layers) == 0 {
		t.Fatalf("facade plan malformed: batch=%d layers=%d", plan.Batch, len(plan.Layers))
	}
}

func TestDeployUnknownPlatform(t *testing.T) {
	_, err := Deploy("AlexNet", "GTX480", AgeDetection())
	if err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, ok := err.(*UnknownPlatformError); !ok {
		t.Fatalf("error type %T, want *UnknownPlatformError", err)
	}
}

// TestSchedulersSuite: evaluating a framework runs the whole suite —
// Performance-preferred, Energy-efficient, QPE, QPE+, P-CNN and Ideal.
func TestSchedulersSuite(t *testing.T) {
	fw, err := New("AlexNet", PlatformByName("K20c"), AgeDetection())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := fw.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, o := range outs {
		names[o.Scheduler] = true
	}
	if len(outs) != 6 || len(names) != 6 {
		t.Fatalf("Evaluate ran %d schedulers (%d distinct), want 6", len(outs), len(names))
	}
}

// TestDeployEndToEnd exercises the one-call path; it trains a scaled
// network, so it is the slowest facade test (a few seconds).
func TestDeployEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	fw, err := Deploy("AlexNet", "TX1", VideoSurveillance(60))
	if err != nil {
		t.Fatal(err)
	}
	out, err := fw.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if !out.MeetsDeadline {
		t.Fatalf("deployed P-CNN misses the TX1 deadline: %.2fms", out.ResponseMS)
	}
	if out.SoC <= 0 {
		t.Fatalf("deployed P-CNN SoC = %v", out.SoC)
	}
}

// TestUnknownErrorsDistinguishable: the two typed Deploy failures must be
// separable with errors.As, and neither must match the other's type.
func TestUnknownErrorsDistinguishable(t *testing.T) {
	_, err := Deploy("LeNet", "TX1", AgeDetection())
	if err == nil {
		t.Fatal("unknown network accepted")
	}
	var netErr *UnknownNetworkError
	var platErr *UnknownPlatformError
	if !errors.As(err, &netErr) {
		t.Fatalf("error %T (%v) is not *UnknownNetworkError", err, err)
	}
	if netErr.Name != "LeNet" {
		t.Errorf("Name = %q, want LeNet", netErr.Name)
	}
	if errors.As(err, &platErr) {
		t.Errorf("network error also matches *UnknownPlatformError")
	}

	_, err = Deploy("AlexNet", "GTX480", AgeDetection())
	if !errors.As(err, &platErr) {
		t.Fatalf("error %T (%v) is not *UnknownPlatformError", err, err)
	}
	if errors.As(err, &netErr) {
		t.Errorf("platform error also matches *UnknownNetworkError")
	}
}

// TestParsePrecisionErrorsBothWays: the re-exported precision error is
// the same type seen through either name — errors.As matches it as
// *pcnn.UnknownPrecisionError and as the tensor package's type alias
// target, and it stays distinguishable from the other Unknown*Errors.
func TestParsePrecisionErrorsBothWays(t *testing.T) {
	if p, err := ParsePrecision("int8"); err != nil || p != PrecisionInt8 {
		t.Fatalf("ParsePrecision(int8) = %v, %v", p, err)
	}
	_, err := ParsePrecision("fp12")
	if err == nil {
		t.Fatal("unknown precision accepted")
	}
	var precErr *UnknownPrecisionError
	if !errors.As(err, &precErr) {
		t.Fatalf("error %T (%v) is not *UnknownPrecisionError", err, err)
	}
	if precErr.Name != "fp12" {
		t.Errorf("Name = %q, want fp12", precErr.Name)
	}
	var netErr *UnknownNetworkError
	var platErr *UnknownPlatformError
	if errors.As(err, &netErr) || errors.As(err, &platErr) {
		t.Errorf("precision error also matches a network/platform error type")
	}
	// The reverse direction: a value constructed as the public type is
	// matched by code holding the internal alias target.
	wrapped := fmt.Errorf("flag -precision: %w", &UnknownPrecisionError{Name: "bf16"})
	precErr = nil
	if !errors.As(wrapped, &precErr) || precErr.Name != "bf16" {
		t.Fatalf("wrapped public error not recovered: %v", wrapped)
	}
}

// TestServeFacade drives the re-exported serving API end to end on a
// compiled (untrained) deployment.
func TestServeFacade(t *testing.T) {
	fw, err := New("AlexNet", PlatformByName("K20c"), ImageTagging())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fw.Serve(ServeConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		f, err := srv.Submit()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	snap := srv.Stats()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if snap.Completed != 8 || snap.MeanSoC <= 0 {
		t.Fatalf("serving snapshot degenerate: %+v", snap)
	}
	if _, err := srv.Submit(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after Close = %v, want ErrServerClosed", err)
	}
}
