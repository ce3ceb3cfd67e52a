// Package satisfaction implements the paper's user-satisfaction machinery:
// the three task classes with their runtime-satisfaction regions (Fig 3),
// the requirement-inference lookup of Section IV.A, and the
// Satisfaction-of-CNN metric (Eq 15) that the evaluation ranks schedulers
// by.
package satisfaction

import (
	"fmt"
	"math"
)

// TaskClass is the paper's application taxonomy (Section II.B).
type TaskClass int

// The three classes of CNN-based applications.
const (
	Interactive TaskClass = iota
	RealTime
	Background
)

// String returns the class name.
func (c TaskClass) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case RealTime:
		return "real-time"
	case Background:
		return "background"
	default:
		return "unknown"
	}
}

// Task describes one CNN-based application's requirements.
type Task struct {
	Name  string
	Class TaskClass
	// TiMS ends the imperceptible region; TtMS ends the tolerable region
	// (Fig 3). Real-time tasks have TtMS == TiMS (no tolerable region);
	// background tasks ignore both.
	TiMS float64
	TtMS float64
	// DataRateHz is the input generation rate (frames per second for
	// surveillance; effectively one request at a time for interactive).
	DataRateHz float64
	// EntropyThreshold is the output-uncertainty level (nats) the user
	// accepts; accuracy tuning stops when mean entropy crosses it.
	EntropyThreshold float64
}

// Validate reports incoherent task definitions.
func (t Task) Validate() error {
	switch {
	case t.Class == Interactive && !(t.TiMS > 0 && t.TtMS >= t.TiMS):
		return fmt.Errorf("satisfaction: interactive task %q needs 0 < Ti ≤ Tt", t.Name)
	case t.Class == RealTime && t.TiMS <= 0:
		return fmt.Errorf("satisfaction: real-time task %q needs a positive deadline", t.Name)
	case t.EntropyThreshold < 0:
		return fmt.Errorf("satisfaction: task %q has negative entropy threshold", t.Name)
	}
	return nil
}

// Deadline returns the hard response budget: Ti for real-time tasks, Tt
// for interactive tasks, +Inf for background tasks.
func (t Task) Deadline() float64 {
	switch t.Class {
	case RealTime:
		return t.TiMS
	case Interactive:
		return t.TtMS
	default:
		return math.Inf(1)
	}
}

// TimeBudget returns the response time offline compilation aims for
// (T_user): the end of the imperceptible region, or +Inf for background
// tasks.
func (t Task) TimeBudget() float64 {
	if t.Class == Background {
		return math.Inf(1)
	}
	return t.TiMS
}

// SlackMS returns how much of the task's hard deadline remains once a
// request has already waited waitedMS and is predicted to need
// predictedMS more to execute (the Eq 12 time model's estimate). The
// online batcher flushes when the oldest request's slack reaches zero and
// escalates the tuning level when it goes negative. Background tasks have
// infinite slack.
func (t Task) SlackMS(waitedMS, predictedMS float64) float64 {
	d := t.Deadline()
	if math.IsInf(d, 1) {
		return math.Inf(1)
	}
	return d - waitedMS - predictedMS
}

// SoCTime returns the time component of user satisfaction (Fig 3):
// 1 in the imperceptible region, 0 in the unusable region, and a linear
// ramp across the tolerable region of interactive tasks.
func (t Task) SoCTime(responseMS float64) float64 {
	switch t.Class {
	case Background:
		return 1
	case RealTime:
		if responseMS <= t.TiMS {
			return 1
		}
		return 0
	default: // Interactive
		switch {
		case responseMS <= t.TiMS:
			return 1
		case responseMS >= t.TtMS:
			return 0
		default:
			return (t.TtMS - responseMS) / (t.TtMS - t.TiMS)
		}
	}
}

// SoCAccuracy returns the accuracy component of Eq 15: 1 while the output
// uncertainty stays under the task's threshold, degrading as
// threshold/entropy beyond it.
func (t Task) SoCAccuracy(meanEntropy float64) float64 {
	if meanEntropy <= t.EntropyThreshold || meanEntropy <= 0 {
		return 1
	}
	if t.EntropyThreshold == 0 {
		return 0
	}
	return t.EntropyThreshold / meanEntropy
}

// SoC returns Eq 15: SoC_time × SoC_accuracy / energy. Energy is per
// processed image (joules); a zero or negative energy yields 0 to keep the
// metric well defined.
func (t Task) SoC(responseMS, meanEntropy, energyPerImageJ float64) float64 {
	if energyPerImageJ <= 0 {
		return 0
	}
	return t.SoCTime(responseMS) * t.SoCAccuracy(meanEntropy) / energyPerImageJ
}

// The three evaluation applications of Section V.C.

// AgeDetection is the interactive task: Ti = 100ms (tolerable interaction
// latency), Tt = 3s (app-abandonment threshold). Entertainment apps
// tolerate sizeable uncertainty.
func AgeDetection() Task {
	return Task{
		Name: "age-detection", Class: Interactive,
		TiMS: 100, TtMS: 3000,
		DataRateHz:       1, // one selfie per request
		EntropyThreshold: 0.9,
	}
}

// VideoSurveillance is the real-time task: the per-frame deadline is the
// frame interval. Security applications demand low uncertainty.
func VideoSurveillance(fps float64) Task {
	return Task{
		Name: "video-surveillance", Class: RealTime,
		TiMS: 1000 / fps, TtMS: 1000 / fps,
		DataRateHz:       fps,
		EntropyThreshold: 0.35,
	}
}

// ImageTagging is the background task: no time requirement, energy is what
// matters, and moderate uncertainty is acceptable.
func ImageTagging() Task {
	return Task{
		Name: "image-tagging", Class: Background,
		DataRateHz:       0,
		EntropyThreshold: 0.9,
	}
}

// TaskByName resolves an archetype name — age, surveillance or tagging,
// or its class alias interactive, realtime or background — to its task.
// fps is the surveillance camera rate; fps ≤ 0 means 30.
func TaskByName(name string, fps float64) (Task, error) {
	switch name {
	case "age", "interactive":
		return AgeDetection(), nil
	case "surveillance", "realtime":
		if fps <= 0 {
			fps = 30
		}
		return VideoSurveillance(fps), nil
	case "tagging", "background":
		return ImageTagging(), nil
	}
	return Task{}, fmt.Errorf("unknown task %q (want age, surveillance or tagging)", name)
}

// EvaluationTasks returns the paper's three scenario tasks (60 FPS
// surveillance, as in Section V.C).
func EvaluationTasks() []Task {
	return []Task{AgeDetection(), VideoSurveillance(60), ImageTagging()}
}

// InferTask is the user-input module of Fig 10: it classifies an
// application by its specification and looks the time requirement up in a
// built-in table, so end-users never state requirements explicitly.
// frameRateHz > 0 with a hard deadline implies real-time; userFacing
// implies interactive; anything else is background.
func InferTask(name string, userFacing bool, frameRateHz float64) Task {
	switch {
	case frameRateHz > 0:
		t := VideoSurveillance(frameRateHz)
		t.Name = name
		return t
	case userFacing:
		t := AgeDetection()
		t.Name = name
		return t
	default:
		t := ImageTagging()
		t.Name = name
		return t
	}
}
