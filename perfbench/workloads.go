package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/scenario"
)

// bench is one workload: set up, then measure.
type bench interface {
	// setup does everything before the first timed operation.
	setup() error
	// run measures for dur. A traced run measures dur/2 untraced and then
	// the same work traced.
	run(dur time.Duration, traced bool) (*outcome, error)
	params() map[string]any
	close()
}

// outcome is what a run measured and checked.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	notes             map[string]any
	// storeDir is the directory whose filesystem the environment stamp
	// reports; empty for workloads without a store.
	storeDir string
	// spans are the traced run's spans, written out when the run ends.
	spans []span
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]float64{}, notes: map[string]any{}}
}

// fail records n wrong outputs.
func (o *outcome) fail(n int, why string) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.correct = false
	errs, _ := o.notes["errors"].([]string)
	o.notes["errors"] = append(errs, why)
}

// scaled records the untraced run's end-to-end rate and latencies, scaled
// to the reference machine's speed at rest, and keeps the raw values.
func (o *outcome) scaled(cal *calibrator, opsPerS, p50, tail float64) {
	f := cal.factor()
	o.metrics["ops_per_s"] = opsPerS * f
	o.metrics["op_p50_ms"] = p50 / f
	o.metrics["op_tail_ms"] = tail / f
	o.notes["calibration"] = map[string]any{
		"factor": f, "kernel_runs": len(cal.samples),
		"raw": map[string]float64{"ops_per_s": opsPerS, "op_p50_ms": p50, "op_tail_ms": tail},
	}
}

var workloadNames = []string{"sweep-plan", "sweep-motion", "serve-mix"}

// newBench builds the named workload for a seed; smoke shrinks it to a
// configuration that finishes in seconds (the benchmark's own tests).
func newBench(name string, seed int64, smoke bool) (bench, error) {
	workers := runtime.NumCPU()
	switch name {
	case "sweep-plan":
		return &sweep{name: name, cells: planCells(smoke), seedsPerCell: 2, tailQ: 0.95, seed: seed, workers: workers}, nil
	case "sweep-motion":
		return &sweep{name: name, cells: motionCells(motionDuration(smoke)), seedsPerCell: 2, tailQ: 0.90, seed: seed, workers: workers}, nil
	case "serve-mix":
		return newServeMix(seed, smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// spanLimit bounds the spans a traced sweep keeps in memory: the first
// mission of every batch keeps its spans until the limit is reached. Every
// mission is still traced.
const spanLimit = 200_000

// planCells are the registry scenarios that run the planner RTA module. The
// gauntlet redraws RRT* every planner period, so its missions are kept short
// enough that it does not take more than about half of a batch's wall time.
func planCells(smoke bool) []scenario.Spec {
	long, gauntlet := 60*time.Second, 6*time.Second
	if smoke {
		long, gauntlet = 5*time.Second, time.Second
	}
	var out []scenario.Spec
	for _, name := range []string{"surveillance-city", "canyon-corridor", "random-endurance", "jitter-storm"} {
		out = append(out, withDuration(scenario.MustGet(name), long))
	}
	// battery-stress lands early; its registry duration is only a cap.
	out = append(out, scenario.MustGet("battery-stress"))
	return append(out, withDuration(scenario.MustGet("planner-bug-gauntlet"), gauntlet))
}

func withDuration(s scenario.Spec, d time.Duration) scenario.Spec {
	return s.With(scenario.Override{Name: d.String(), Apply: func(s *scenario.Spec) { s.Duration = d }})
}

// motionPolicies are the switching policies the motion workloads sweep;
// always-ac exercises the clamp path.
var motionPolicies = []string{"soter-fig9", "sticky-sc", "hysteresis", "always-ac"}

// motionSpecs are the motion-layer-only specs: corner-hazard-tour plus three
// planner-module scenarios with the planner module turned off.
func motionSpecs() []scenario.Spec {
	out := []scenario.Spec{scenario.MustGet("corner-hazard-tour")}
	for _, name := range []string{"surveillance-city", "canyon-corridor", "jitter-storm"} {
		out = append(out, scenario.MustGet(name).With(scenario.Override{
			Name: "no-planner", Apply: func(s *scenario.Spec) { s.NoPlannerModule = true },
		}))
	}
	return out
}

func motionDuration(smoke bool) time.Duration {
	if smoke {
		return 3 * time.Second
	}
	return 30 * time.Second
}

// motionCells crosses the motion specs with the policies.
func motionCells(d time.Duration) []scenario.Spec {
	var out []scenario.Spec
	for _, spec := range motionSpecs() {
		for _, pol := range motionPolicies {
			out = append(out, withDuration(spec, d).With(scenario.Override{
				Name: pol, Apply: func(s *scenario.Spec) { s.SwitchPolicy = pol },
			}))
		}
	}
	return out
}

//go:embed expected.json
var expectedJSON []byte

// expectedDigest is the recorded verdict digest of a sweep at a seed.
func expectedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}
