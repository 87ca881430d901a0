package runtime_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/falsify"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// primitives are the motion-primitive controller nodes, the nodes of the
// stack that declare an idle step.
var primitives = []string{"mpr.ac", "mpr.sc"}

// closedLoop is everything a run shows: its full event stream, its metrics
// and every node's local state when it ends.
type closedLoop struct {
	events  []obs.Event
	metrics sim.Metrics
	final   map[string]node.State
}

// runWith runs cfg once; edit, when non-nil, changes the executor before its
// first step.
func runWith(t *testing.T, cfg sim.RunConfig, edit func(*runtime.Executor)) closedLoop {
	t.Helper()
	var exec *runtime.Executor
	restore := runtime.OnNew(func(e *runtime.Executor) {
		exec = e
		if edit != nil {
			edit(e)
		}
	})
	defer restore()
	var out closedLoop
	cfg.Observers = append(cfg.Observers, obs.ObserverFunc(func(e obs.Event) { out.events = append(out.events, e) }))
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Label, err)
	}
	out.metrics = res.Metrics
	out.final = make(map[string]node.State)
	for _, name := range cfg.Stack.System.NodeNames() {
		out.final[name], _ = exec.LocalState(name)
	}
	return out
}

// setIdle replaces the idle step of the motion primitives the system has.
func setIdle(idle node.IdleFunc) func(*runtime.Executor) {
	return func(e *runtime.Executor) {
		for _, name := range primitives {
			if _, ok := e.LocalState(name); ok {
				e.SetIdleStep(name, idle)
			}
		}
	}
}

// divergence names the first part of two runs that differs, "" when they
// are identical.
func divergence(a, b closedLoop) string {
	for i := range min(len(a.events), len(b.events)) {
		if !reflect.DeepEqual(a.events[i], b.events[i]) {
			return fmt.Sprintf("event %d: %#v vs %#v", i, a.events[i], b.events[i])
		}
	}
	if len(a.events) != len(b.events) {
		return fmt.Sprintf("%d vs %d events", len(a.events), len(b.events))
	}
	if !reflect.DeepEqual(a.metrics, b.metrics) {
		return fmt.Sprintf("metrics %+v vs %+v", a.metrics, b.metrics)
	}
	for name, st := range a.final {
		if !reflect.DeepEqual(st, b.final[name]) {
			return fmt.Sprintf("final state of %s: %#v vs %#v", name, st, b.final[name])
		}
	}
	return ""
}

// cell is one closed-loop run of the differential test. A stack's nodes
// keep state across runs (planner caches and RNGs, reused output
// valuations), so every run builds its own.
type cell struct {
	label string
	spec  scenario.Spec
	seed  int64
}

// build returns a fresh run configuration of the cell.
func (c cell) build(t *testing.T) sim.RunConfig {
	t.Helper()
	cfg, err := c.spec.Build(c.seed)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	cfg.Label = c.label
	return cfg
}

// idleCells are the runs the idle step is held to: every registry scenario
// at seeds 1–3, capped at 20 s, and every live entry of the committed falsify
// corpus (jitter windows among them, which drop firings of the SC).
func idleCells(t *testing.T) []cell {
	t.Helper()
	var cells []cell
	for _, spec := range scenario.All() {
		spec = spec.With(scenario.Override{Apply: func(s *scenario.Spec) {
			s.Duration = min(s.Duration, 20*time.Second)
		}})
		for seed := int64(1); seed <= 3; seed++ {
			cells = append(cells, cell{fmt.Sprintf("%s seed %d", spec.Name, seed), spec, seed})
		}
	}
	corpus, err := falsify.LoadCorpus("../falsify/testdata/falsified")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty falsify corpus")
	}
	for _, e := range corpus {
		if e.Retired {
			continue
		}
		spec, err := e.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{e.Name, spec, e.Candidate.Seed})
	}
	return cells
}

// TestIdleStepIsInvisible runs every idle cell twice, once as shipped and
// once with the motion primitives' idle step stripped, so a disabled
// controller runs its full step: the event streams, metrics and final local
// states must be identical.
func TestIdleStepIsInvisible(t *testing.T) {
	for _, c := range idleCells(t) {
		shipped := runWith(t, c.build(t), nil)
		stripped := runWith(t, c.build(t), setIdle(nil))
		if d := divergence(shipped, stripped); d != "" {
			t.Errorf("%s: eliding the disabled controller's step changed the run: %s", c.label, d)
		}
	}
}

// TestIdleStepDefectDiverges plants a defect the differential test must
// catch: an idle step that does not advance the primitive's clock. On
// surveillance-city, whose AC has fault windows and switches, a stale clock
// shifts the faults the AC applies after it is re-enabled, so the run itself
// diverges, not only the final clock.
func TestIdleStepDefectDiverges(t *testing.T) {
	c := cell{"surveillance-city seed 1", scenario.MustGet("surveillance-city").With(scenario.Override{Apply: func(s *scenario.Spec) {
		s.Duration = 20 * time.Second
	}}), 1}
	shipped := runWith(t, c.build(t), nil)
	if shipped.metrics.TotalDisengagements() == 0 {
		t.Fatalf("surveillance-city seed 1 did not switch: %+v", shipped.metrics)
	}
	stale := runWith(t, c.build(t), setIdle(func(st node.State) node.State { return st }))
	if reflect.DeepEqual(shipped.events, stale.events) {
		t.Fatal("a clock-freezing idle step left the event stream unchanged")
	}
	if divergence(shipped, stale) == "" {
		t.Fatal("the differential test missed a clock-freezing idle step")
	}
}
