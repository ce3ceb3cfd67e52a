package satisfaction

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEvaluationTasksValidate(t *testing.T) {
	for _, task := range EvaluationTasks() {
		if err := task.Validate(); err != nil {
			t.Errorf("%s: %v", task.Name, err)
		}
	}
}

func TestSoCTimeInteractiveRegions(t *testing.T) {
	task := AgeDetection() // Ti=100, Tt=3000
	cases := []struct {
		ms   float64
		want float64
	}{
		{10, 1},
		{100, 1},
		{1550, 0.5},
		{3000, 0},
		{9999, 0},
	}
	for _, c := range cases {
		if got := task.SoCTime(c.ms); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SoCTime(%v) = %v, want %v", c.ms, got, c.want)
		}
	}
}

func TestSoCTimeRealTimeHardDeadline(t *testing.T) {
	task := VideoSurveillance(60) // deadline 16.67ms
	if got := task.SoCTime(16.0); got != 1 {
		t.Errorf("under deadline: %v, want 1", got)
	}
	if got := task.SoCTime(17.0); got != 0 {
		t.Errorf("over deadline: %v, want 0 (no tolerable region)", got)
	}
}

func TestSoCTimeBackgroundAlwaysOne(t *testing.T) {
	task := ImageTagging()
	for _, ms := range []float64{1, 1e4, 1e8} {
		if got := task.SoCTime(ms); got != 1 {
			t.Fatalf("SoCTime(%v) = %v, want 1", ms, got)
		}
	}
	if !math.IsInf(task.Deadline(), 1) {
		t.Fatalf("background deadline should be +Inf")
	}
}

func TestSoCAccuracy(t *testing.T) {
	task := Task{Name: "t", Class: Background, EntropyThreshold: 0.5}
	if got := task.SoCAccuracy(0.3); got != 1 {
		t.Errorf("under threshold: %v, want 1", got)
	}
	if got := task.SoCAccuracy(1.0); got != 0.5 {
		t.Errorf("over threshold: %v, want 0.5", got)
	}
}

func TestSoCEq15(t *testing.T) {
	task := AgeDetection()
	soc := task.SoC(50, 0.5, 2) // imperceptible, confident, 2 J/image
	if math.Abs(soc-0.5) > 1e-9 {
		t.Errorf("SoC = %v, want 0.5", soc)
	}
	if got := task.SoC(50, 0.5, 0); got != 0 {
		t.Errorf("zero energy SoC = %v, want 0", got)
	}
}

func TestSoCPrefersLessEnergy(t *testing.T) {
	task := ImageTagging()
	if !(task.SoC(100, 0.1, 1) > task.SoC(100, 0.1, 2)) {
		t.Fatalf("SoC should rise as energy falls")
	}
}

func TestDeadlines(t *testing.T) {
	if got := AgeDetection().Deadline(); got != 3000 {
		t.Errorf("interactive deadline %v, want 3000 (Tt)", got)
	}
	if got := VideoSurveillance(60).Deadline(); math.Abs(got-1000.0/60) > 1e-9 {
		t.Errorf("real-time deadline %v, want 16.67", got)
	}
	if got := AgeDetection().TimeBudget(); got != 100 {
		t.Errorf("interactive budget %v, want 100 (Ti)", got)
	}
}

func TestInferTask(t *testing.T) {
	rt := InferTask("pedestrians", false, 30)
	if rt.Class != RealTime || math.Abs(rt.TiMS-1000.0/30) > 1e-9 {
		t.Errorf("frame-rate app inferred %v", rt)
	}
	ia := InferTask("prisma", true, 0)
	if ia.Class != Interactive {
		t.Errorf("user-facing app inferred %v", ia.Class)
	}
	bg := InferTask("moments", false, 0)
	if bg.Class != Background {
		t.Errorf("background app inferred %v", bg.Class)
	}
}

// TestTaskByName: every archetype name and its class alias resolve to the
// archetype's task, a surveillance rate ≤ 0 means 30 fps, and an unknown
// name is an error naming the choices.
func TestTaskByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		fps  float64
		want Task
	}{
		{"age", 0, AgeDetection()},
		{"interactive", 24, AgeDetection()},
		{"surveillance", 24, VideoSurveillance(24)},
		{"realtime", 60, VideoSurveillance(60)},
		{"surveillance", 0, VideoSurveillance(30)},
		{"realtime", -5, VideoSurveillance(30)},
		{"tagging", 0, ImageTagging()},
		{"background", 24, ImageTagging()},
	} {
		got, err := TaskByName(tc.name, tc.fps)
		if err != nil || got != tc.want {
			t.Errorf("TaskByName(%q, %v) = (%+v, %v), want %+v", tc.name, tc.fps, got, err, tc.want)
		}
	}
	const want = `unknown task "mining" (want age, surveillance or tagging)`
	if _, err := TaskByName("mining", 30); err == nil || err.Error() != want {
		t.Errorf("TaskByName(mining) error = %v, want %q", err, want)
	}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	bad := []Task{
		{Name: "i", Class: Interactive, TiMS: 0, TtMS: 10},
		{Name: "i2", Class: Interactive, TiMS: 20, TtMS: 10},
		{Name: "r", Class: RealTime, TiMS: 0},
		{Name: "e", Class: Background, EntropyThreshold: -1},
	}
	for _, task := range bad {
		if err := task.Validate(); err == nil {
			t.Errorf("%s: invalid task accepted", task.Name)
		}
	}
}

// Property: SoCTime is non-increasing in response time and bounded to [0,1].
func TestSoCTimeMonotoneProperty(t *testing.T) {
	tasks := EvaluationTasks()
	f := func(a, b float64, which uint8) bool {
		task := tasks[int(which)%len(tasks)]
		ra := math.Abs(math.Mod(a, 5000))
		rb := math.Abs(math.Mod(b, 5000))
		if ra > rb {
			ra, rb = rb, ra
		}
		sa, sb := task.SoCTime(ra), task.SoCTime(rb)
		return sb <= sa+1e-12 && sa >= 0 && sa <= 1 && sb >= 0 && sb <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SoCAccuracy is non-increasing in entropy and bounded to [0,1].
func TestSoCAccuracyMonotoneProperty(t *testing.T) {
	task := AgeDetection()
	f := func(a, b float64) bool {
		ea := math.Abs(math.Mod(a, 3))
		eb := math.Abs(math.Mod(b, 3))
		if ea > eb {
			ea, eb = eb, ea
		}
		sa, sb := task.SoCAccuracy(ea), task.SoCAccuracy(eb)
		return sb <= sa+1e-12 && sa >= 0 && sa <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSlackMS is the table-driven deadline-slack coverage across the three
// archetypes (satellite of the serving PR): the fps-derived surveillance
// deadline, the interactive tolerable-region deadline, infinite background
// slack, and the zero/negative-slack edge cases the online batcher keys
// flush-versus-escalate decisions on.
func TestSlackMS(t *testing.T) {
	frame60 := 1000.0 / 60
	cases := []struct {
		name                  string
		task                  Task
		waitedMS, predictedMS float64
		want                  float64
	}{
		{"interactive idle", AgeDetection(), 0, 0, 3000},
		{"interactive part-spent", AgeDetection(), 500, 1500, 1000},
		{"interactive exactly zero", AgeDetection(), 1000, 2000, 0},
		{"interactive negative", AgeDetection(), 2500, 1000, -500},
		{"surveillance 60fps idle", VideoSurveillance(60), 0, 0, frame60},
		{"surveillance 60fps mid-frame", VideoSurveillance(60), 10, 5, frame60 - 15},
		{"surveillance 30fps negative", VideoSurveillance(30), 20, 20, 1000.0/30 - 40},
		{"background infinite", ImageTagging(), 1e9, 1e9, math.Inf(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.task.SlackMS(c.waitedMS, c.predictedMS)
			if math.IsInf(c.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("SlackMS = %v, want +Inf", got)
				}
				return
			}
			if math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("SlackMS(%v, %v) = %v, want %v", c.waitedMS, c.predictedMS, got, c.want)
			}
		})
	}
}

// Slack must agree with the deadline definition: zero waited+predicted
// budget leaves exactly Deadline() of slack for every archetype.
func TestSlackMatchesDeadline(t *testing.T) {
	for _, task := range EvaluationTasks() {
		if got, want := task.SlackMS(0, 0), task.Deadline(); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Errorf("%s: SlackMS(0,0) = %v, want Deadline() = %v", task.Name, got, want)
		}
	}
}
