package gpu

import (
	"errors"
	"testing"

	"pcnn/internal/fault"
)

func testLaunches(n int) []Launch {
	ls := make([]Launch, n)
	for i := range ls {
		ls[i] = Launch{Kernel: computeKernel(4), Config: DefaultLaunch()}
	}
	return ls
}

// TestRunInjectedNilMatchesRun: threading a nil injector is exactly the
// plain Run path, bit for bit.
func TestRunInjectedNilMatchesRun(t *testing.T) {
	d := testDevice()
	ls := testLaunches(5)
	r1, a1, err1 := d.Run(ls)
	r2, a2, err2 := d.RunInjected(ls, nil, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if a1 != a2 {
		t.Fatalf("aggregates differ: %+v vs %+v", a1, a2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("launch %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestRunInjectedLaunchFault: an injected launch failure surfaces as a
// typed *LaunchError carrying the failing index, the Injected flag, and
// the fault sentinel through Unwrap.
func TestRunInjectedLaunchFault(t *testing.T) {
	d := testDevice()
	inj := fault.MustNew(fault.Spec{Seed: 42, Launch: 1}) // fail the first launch
	_, _, err := d.RunInjected(testLaunches(3), nil, inj)
	if err == nil {
		t.Fatal("rate-1 launch injection did not fail")
	}
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not *LaunchError", err)
	}
	if !le.Injected || le.Index != 0 || le.Kernel != "compute" {
		t.Fatalf("LaunchError = %+v, want injected at index 0 on compute", le)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) = false", err)
	}
	if errors.Is(err, ErrNoResidency) {
		t.Fatal("injected error should not look like a residency failure")
	}
	if inj.Count(fault.KindLaunch) != 1 {
		t.Fatalf("launch count = %d, want 1", inj.Count(fault.KindLaunch))
	}
}

// TestRunInjectedGenuineError: a real simulator failure keeps its typed
// wrapper with Injected false and the original cause intact.
func TestRunInjectedGenuineError(t *testing.T) {
	d := testDevice()
	bad := Launch{
		Kernel: Kernel{Name: "monster", GridSize: 1, BlockSize: 4096,
			RegsPerThread: 32, FMAInsts: 10},
		Config: DefaultLaunch(),
	}
	ls := []Launch{{Kernel: computeKernel(4), Config: DefaultLaunch()}, bad}
	_, _, err := d.RunInjected(ls, nil, nil)
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("err %T is not *LaunchError", err)
	}
	if le.Injected || le.Index != 1 || le.Kernel != "monster" {
		t.Fatalf("LaunchError = %+v, want genuine failure at index 1", le)
	}
	if !errors.Is(err, ErrNoResidency) {
		t.Fatalf("errors.Is(%v, ErrNoResidency) = false through wrapper", err)
	}
	if errors.Is(err, fault.ErrInjected) {
		t.Fatal("genuine failure should not match ErrInjected")
	}
}

// TestRunInjectedSlowFault: slow-kernel injection stretches the affected
// launch's time, energy and cycles by exactly the spec factor, shrinks its
// achieved GFLOP/s by the same, and the aggregate reflects it.
func TestRunInjectedSlowFault(t *testing.T) {
	d := testDevice()
	ls := testLaunches(1)
	base, baseAgg, err := d.Run(ls)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.MustNew(fault.Spec{Seed: 42, Slow: 1, SlowFactor: 4})
	slow, slowAgg, err := d.RunInjected(ls, nil, inj)
	if err != nil {
		t.Fatal(err)
	}
	if slow[0].TimeMS != base[0].TimeMS*4 || slow[0].EnergyJ != base[0].EnergyJ*4 ||
		slow[0].Cycles != base[0].Cycles*4 {
		t.Fatalf("slowed result %+v is not 4× base %+v", slow[0], base[0])
	}
	// The launch did the same work in 4× the time: FLOPs = rate × time is
	// invariant under injection.
	if base[0].AchievedGFLOPs <= 0 || slow[0].AchievedGFLOPs*slow[0].TimeMS != base[0].AchievedGFLOPs*base[0].TimeMS {
		t.Fatalf("AchievedGFLOPs·TimeMS moved under injection: %v·%v vs %v·%v",
			slow[0].AchievedGFLOPs, slow[0].TimeMS, base[0].AchievedGFLOPs, base[0].TimeMS)
	}
	if slowAgg.TimeMS != baseAgg.TimeMS*4 {
		t.Fatalf("aggregate time %v, want %v", slowAgg.TimeMS, baseAgg.TimeMS*4)
	}
	if inj.Count(fault.KindSlow) != 1 {
		t.Fatalf("slow count = %d, want 1", inj.Count(fault.KindSlow))
	}
}

// TestRunInjectedDeterministic: the same seed injects at the same launch
// indices across fresh injectors.
func TestRunInjectedDeterministic(t *testing.T) {
	d := testDevice()
	ls := testLaunches(50)
	run := func() (failIdx int) {
		inj := fault.MustNew(fault.Spec{Seed: 7, Launch: 0.1})
		_, _, err := d.RunInjected(ls, nil, inj)
		if err == nil {
			return -1
		}
		var le *LaunchError
		if !errors.As(err, &le) {
			t.Fatalf("err %T is not *LaunchError", err)
		}
		return le.Index
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d failed at index %d, first run at %d", i, got, first)
		}
	}
}

// TestRunInjectedObserverSeesStretchedResults: the observer receives the
// post-injection result rows, matching what the caller gets back.
func TestRunInjectedObserverSeesStretchedResults(t *testing.T) {
	d := testDevice()
	ls := testLaunches(3)
	inj := fault.MustNew(fault.Spec{Seed: 42, Slow: 1, SlowFactor: 2})
	var seen []Result
	results, _, err := d.RunInjected(ls, func(i int, r Result) {
		seen = append(seen, r)
	}, inj)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(results) {
		t.Fatalf("observer saw %d rows, want %d", len(seen), len(results))
	}
	for i := range results {
		if seen[i] != results[i] {
			t.Fatalf("observer row %d %+v differs from result %+v", i, seen[i], results[i])
		}
	}
}
