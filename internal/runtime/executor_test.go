package runtime

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/rta"
)

// counterNode publishes an incrementing counter on out every period.
func counterNode(t *testing.T, name string, period time.Duration, out pubsub.TopicName) *node.Node {
	t.Helper()
	n, err := node.New(name, period, nil, []pubsub.TopicName{out},
		func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			c, _ := st.(int)
			return c + 1, pubsub.Valuation{out: c + 1}, nil
		},
		node.WithInit(func() node.State { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// echoNode copies its input topic to its output topic.
func echoNode(t *testing.T, name string, period time.Duration, in, out pubsub.TopicName) *node.Node {
	t.Helper()
	n, err := node.New(name, period, []pubsub.TopicName{in}, []pubsub.TopicName{out},
		func(st node.State, v pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			return st, pubsub.Valuation{out: v[in]}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testModule builds an RTA module over a shared "x" topic where AC writes
// "AC" and SC writes "SC" on topic "who", switching on the boolean topic
// "danger" (ttf) and "calm" (safer).
func testModule(t *testing.T, delta time.Duration) *rta.Module {
	t.Helper()
	mk := func(name, val string) *node.Node {
		n, err := node.New(name, delta, []pubsub.TopicName{"danger", "calm"}, []pubsub.TopicName{"who"},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				return st, pubsub.Valuation{"who": val}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return testModuleOf(t, delta, mk("tm.ac", "AC"), mk("tm.sc", "SC"))
}

// testModuleOf builds testModule's module "tm" around the given AC and SC.
func testModuleOf(t *testing.T, delta time.Duration, ac, sc *node.Node) *rta.Module {
	t.Helper()
	boolTopic := func(v pubsub.Valuation, name pubsub.TopicName) bool {
		b, _ := v[name].(bool)
		return b
	}
	m, err := rta.NewModule(rta.Decl{
		Name:      "tm",
		AC:        ac,
		SC:        sc,
		Delta:     delta,
		TTF2Delta: func(v pubsub.Valuation) bool { return boolTopic(v, "danger") },
		InSafer:   func(v pubsub.Valuation) bool { return boolTopic(v, "calm") },
		Safe:      func(v pubsub.Valuation) bool { return !boolTopic(v, "crashed") },
		Monitored: []pubsub.TopicName{"danger", "calm", "crashed"},
		DMPhase:   delta, // decide at Δ, 2Δ, ... for easy reasoning in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestExec(t *testing.T, m *rta.Module, opts ...Option) *Executor {
	t.Helper()
	sys, err := rta.NewSystem([]*rta.Module{m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := New(sys, []pubsub.Topic{
		{Name: "danger", Default: false},
		{Name: "calm", Default: false},
		{Name: "crashed", Default: false},
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// recordSwitches attaches an observer that appends the run's ModeSwitch
// events to log.
func recordSwitches(log *[]obs.ModeSwitch) Option {
	return WithObservers(obs.ObserverFunc(func(e obs.Event) {
		if sw, ok := e.(obs.ModeSwitch); ok {
			*log = append(*log, sw)
		}
	}))
}

func TestInitialConfiguration(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	exec := newTestExec(t, m)
	// OE0: SC enabled, AC disabled; mode = SC; ct = 0.
	if exec.OutputEnabled("tm.ac") {
		t.Error("AC output must start disabled")
	}
	if !exec.OutputEnabled("tm.sc") {
		t.Error("SC output must start enabled")
	}
	mode, err := exec.Mode("tm")
	if err != nil || mode != rta.ModeSC {
		t.Errorf("initial mode = %v, %v", mode, err)
	}
	if exec.Now() != 0 {
		t.Errorf("ct0 = %v", exec.Now())
	}
}

func TestOutputGating(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	var sw []obs.ModeSwitch
	exec := newTestExec(t, m, recordSwitches(&sw))
	// At t=100ms: DM fires first (mode stays SC since calm=false), then both
	// controllers fire; only SC's output lands on the topic.
	if err := exec.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, _ := exec.Topics().Get("who"); v != "SC" {
		t.Errorf("who = %v, want SC", v)
	}
	// Signal calm: at the next DM tick the mode flips to AC, whose output
	// takes over.
	if err := exec.Topics().Set("calm", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if mode, _ := exec.Mode("tm"); mode != rta.ModeAC {
		t.Errorf("mode = %v, want AC", mode)
	}
	if v, _ := exec.Topics().Get("who"); v != "AC" {
		t.Errorf("who = %v, want AC", v)
	}
	// Danger: the DM switches back to SC.
	if err := exec.Topics().Set("danger", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, _ := exec.Topics().Get("who"); v != "SC" {
		t.Errorf("who after danger = %v, want SC", v)
	}
	// Switches were emitted in order, at the DM ticks that decided them.
	if len(sw) != 2 || sw[0].To != rta.ModeAC || sw[1].To != rta.ModeSC {
		t.Fatalf("switches = %v", sw)
	}
	if sw[0].Module != "tm" || sw[0].From != rta.ModeSC || sw[0].T != 200*time.Millisecond || sw[1].T != 300*time.Millisecond {
		t.Errorf("switches = %+v", sw)
	}
}

// TestDisabledControllerRunsIdleStep checks the elision in AC-OR-SC-STEP:
// a firing whose outputs OE disables runs the node's idle step instead of
// its step, and still emits its NodeFired event; an enabled firing steps.
func TestDisabledControllerRunsIdleStep(t *testing.T) {
	delta := 100 * time.Millisecond
	steps := map[string]int{}
	mk := func(name, val string) *node.Node {
		n, err := node.New(name, delta, []pubsub.TopicName{"danger", "calm"}, []pubsub.TopicName{"who"},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				steps[name]++
				return st.(int) + 1, pubsub.Valuation{"who": val}, nil
			},
			node.WithInit(func() node.State { return 0 }),
			node.WithIdleStep(func(st node.State) node.State { return st.(int) + 1 }))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fired := map[string]int{}
	exec := newTestExec(t, testModuleOf(t, delta, mk("tm.ac", "AC"), mk("tm.sc", "SC")),
		WithObservers(obs.ObserverFunc(func(e obs.Event) {
			if f, ok := e.(obs.NodeFired); ok {
				fired[f.Node]++
			}
		})))
	check := func(when string, acSteps, scSteps, firings int) {
		t.Helper()
		for name, want := range map[string]int{"tm.ac": acSteps, "tm.sc": scSteps} {
			if steps[name] != want {
				t.Errorf("%s: %s stepped %d times, want %d", when, name, steps[name], want)
			}
			if st, _ := exec.LocalState(name); st != firings || fired[name] != firings {
				t.Errorf("%s: %s state %v after %d NodeFired events, want %d of each", when, name, st, fired[name], firings)
			}
		}
	}
	// SC mode at 100 and 200 ms: the AC only idles.
	if err := exec.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("SC mode", 0, 2, 2)
	// calm: the DM enables the AC at 300 ms, before the controllers fire,
	// and the SC idles from then on.
	if err := exec.Topics().Set("calm", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("AC mode", 3, 2, 5)
	if v, _ := exec.Topics().Get("who"); v != "AC" {
		t.Errorf("who = %v, want AC", v)
	}
}

// TestInvariantChecking: the φInv monitor needs no option. A module whose
// φsafe fails reports a violation at every DM sampling instant, and the run
// still reaches its deadline.
func TestInvariantChecking(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	var at []time.Duration
	exec := newTestExec(t, m, WithObservers(obs.ObserverFunc(func(e obs.Event) {
		if v, ok := e.(obs.InvariantViolation); ok {
			at = append(at, v.T)
		}
	})))
	if err := exec.Topics().Set("crashed", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil = %v, want a run that reports violations and goes on", err)
	}
	if exec.Now() != time.Second {
		t.Errorf("run stopped at %v, want 1s", exec.Now())
	}
	if len(at) != 10 || at[0] != 100*time.Millisecond || at[9] != time.Second {
		t.Errorf("violations at %v, want one per DM step from 100ms to 1s", at)
	}
}

func TestEnvironmentAdvance(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	var calls []time.Duration
	env := EnvironmentFunc(func(prev, now time.Duration, topics *pubsub.Store) error {
		calls = append(calls, now)
		return topics.Set("danger", false)
	})
	exec := newTestExec(t, m, WithEnvironment(env))
	if err := exec.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The environment is invoked at every time progress: 100ms and 200ms.
	if !reflect.DeepEqual(calls, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}) {
		t.Errorf("env calls = %v", calls)
	}
}

func TestEnvironmentErrorPropagates(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	boom := errors.New("plant exploded")
	exec := newTestExec(t, m, WithEnvironment(EnvironmentFunc(
		func(prev, now time.Duration, topics *pubsub.Store) error { return boom })))
	if err := exec.RunUntil(time.Second); !errors.Is(err, boom) {
		t.Errorf("RunUntil = %v", err)
	}
}

func TestDropFilter(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	// Drop every SC firing: the topic never gets SC's value even though SC
	// is the enabled controller.
	exec := newTestExec(t, m, WithDropFilter(func(_ time.Duration, name string) bool {
		return name == "tm.sc"
	}))
	if err := exec.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, _ := exec.Topics().Get("who"); v != nil {
		t.Errorf("who = %v, want nil (SC never scheduled)", v)
	}
}

func TestDMFiresBeforeControllers(t *testing.T) {
	// All nodes share the same instants. The DM's decision at time t must
	// gate the controllers firing at the same t.
	m := testModule(t, 100*time.Millisecond)
	exec := newTestExec(t, m)
	if err := exec.Topics().Set("calm", true); err != nil {
		t.Fatal(err)
	}
	// At t=100ms: DM flips to AC first; then AC (enabled) publishes.
	if err := exec.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, _ := exec.Topics().Get("who"); v != "AC" {
		t.Errorf("who = %v: DM decision did not precede controllers", v)
	}
}

func TestScheduleOrderOverride(t *testing.T) {
	// A custom order can force controllers before the DM, and an invalid
	// permutation falls back to the default.
	m := testModule(t, 100*time.Millisecond)
	dmLast := func(_ time.Duration, firing []string) []string {
		return []string{"tm.ac", "tm.sc", "tm.dm"}
	}
	exec := newTestExec(t, m, WithScheduleOrder(dmLast))
	if err := exec.Topics().Set("calm", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// DM last: AC fires while still disabled (no write), SC fires enabled
	// (who=SC), then the DM flips to AC — too late to matter this instant.
	if v, _ := exec.Topics().Get("who"); v != "SC" {
		t.Errorf("who = %v, want SC when the DM decides last", v)
	}

	bogus := func(_ time.Duration, firing []string) []string { return []string{"nope"} }
	exec2 := newTestExec(t, m, WithScheduleOrder(bogus))
	if err := exec2.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatalf("invalid permutation should fall back, got %v", err)
	}
}

func TestPlainNodesAlwaysEnabled(t *testing.T) {
	cnt := counterNode(t, "cnt", 50*time.Millisecond, "ticks")
	echo := echoNode(t, "echo", 50*time.Millisecond, "ticks", "echoed")
	sys, err := rta.NewSystem(nil, []*node.Node{cnt, echo})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	exec, err := New(sys, nil, WithObservers(obs.ObserverFunc(func(e obs.Event) {
		if _, ok := e.(obs.NodeFired); ok {
			fired++
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	v, _ := exec.Topics().Get("ticks")
	if v.(int) != 5 {
		t.Errorf("ticks = %v, want 5", v)
	}
	// echo lags by zero or one tick depending on alphabetical order; "cnt"
	// fires before "echo", so echo sees the fresh value.
	ev, _ := exec.Topics().Get("echoed")
	if ev.(int) != 5 {
		t.Errorf("echoed = %v, want 5", ev)
	}
	if fired != 10 {
		t.Errorf("firings = %d, want 10", fired)
	}
}

// TestUndeclaredOutputRejected: a firing that publishes on a topic outside
// the node's declared outputs makes Run fail with an error naming the node
// and the topic, and no value of that firing reaches the store — not even
// the declared output published alongside it. The rogue topic may be
// unknown to the store or another node's declared output.
func TestUndeclaredOutputRejected(t *testing.T) {
	for _, rogue := range []pubsub.TopicName{"nowhere", "ticks"} {
		t.Run(string(rogue), func(t *testing.T) {
			bad, err := node.New("bad", 100*time.Millisecond, nil, []pubsub.TopicName{"mine"},
				func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
					return st, pubsub.Valuation{"mine": "written", rogue: "rogue"}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			cnt := counterNode(t, "cnt", 50*time.Millisecond, "ticks")
			sys, err := rta.NewSystem(nil, []*node.Node{bad, cnt})
			if err != nil {
				t.Fatal(err)
			}
			exec, err := New(sys, nil)
			if err != nil {
				t.Fatal(err)
			}
			// cnt publishes ticks = 1 at 50 ms; bad fires first at 100 ms.
			err = exec.RunUntil(time.Second)
			if err == nil {
				t.Fatal("Run accepted an undeclared output")
			}
			if msg := err.Error(); !strings.Contains(msg, `"bad"`) || !strings.Contains(msg, `"`+string(rogue)+`"`) {
				t.Errorf("error %q does not name the node and the topic", msg)
			}
			if v, _ := exec.Topics().Get("mine"); v != nil {
				t.Errorf("declared output of the failed firing reached the store: mine = %v", v)
			}
			if v, _ := exec.Topics().Get("ticks"); v != 1 {
				t.Errorf("ticks = %v, want 1", v)
			}
		})
	}
}

// TestSteadyStateFiringAllocatesNothing: a firing of a node that republishes
// a pre-boxed value — input read, step, output check and write by topic ID
// — allocates nothing.
func TestSteadyStateFiringAllocatesNothing(t *testing.T) {
	val := pubsub.Value([3]float64{1, 2, 3})
	out := make(pubsub.Valuation, 1)
	steps := 0
	rep, err := node.New("rep", 10*time.Millisecond, []pubsub.TopicName{"in"}, []pubsub.TopicName{"out"},
		func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			steps++
			out["out"] = val
			return st, out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rta.NewSystem(nil, []*node.Node{rep})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := New(sys, []pubsub.Topic{{Name: "in", Default: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	step := func() { // one time progress, one firing
		for range 2 {
			if _, err := exec.Step(); err != nil {
				stepErr = err
			}
		}
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("steady-state firing allocates %.1f objects, want 0", allocs)
	}
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if steps != 202 {
		t.Errorf("steps = %d, want 202", steps)
	}
	if v, _ := exec.Topics().Get("out"); v != val {
		t.Errorf("out = %v, want %v", v, val)
	}
}

// TestInputValuationMutationDoesNotLeak: the executor refills each node's
// input valuation in place every firing; a node that deletes an input from
// it, or adds a key, still sees exactly its inputs at its next firing.
func TestInputValuationMutationDoesNotLeak(t *testing.T) {
	var seen []pubsub.Valuation
	mut, err := node.New("mut", 10*time.Millisecond, []pubsub.TopicName{"a", "b"}, nil,
		func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			seen = append(seen, maps.Clone(in))
			if len(seen)%2 == 1 {
				delete(in, "a")
			} else {
				delete(in, "b")
				in["junk"] = true
			}
			return st, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rta.NewSystem(nil, []*node.Node{mut})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := New(sys, []pubsub.Topic{{Name: "a", Default: 1}, {Name: "b", Default: 2}, {Name: "junk"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("fired %d times, want 5", len(seen))
	}
	for i, in := range seen {
		if !reflect.DeepEqual(in, pubsub.Valuation{"a": 1, "b": 2}) {
			t.Errorf("firing %d saw %v", i+1, in)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	cnt := counterNode(t, "cnt", 30*time.Millisecond, "ticks")
	sys, err := rta.NewSystem(nil, []*node.Node{cnt})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Firings at 30, 60, 90; the 120ms event exceeds the deadline.
	if exec.Now() != 90*time.Millisecond {
		t.Errorf("ct = %v, want 90ms", exec.Now())
	}
	v, _ := exec.Topics().Get("ticks")
	if v.(int) != 3 {
		t.Errorf("ticks = %v, want 3", v)
	}
}

func TestNewRejectsDuplicateEnvTopic(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	sys, err := rta.NewSystem([]*rta.Module{m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(sys, []pubsub.Topic{{Name: "danger"}, {Name: "danger"}})
	if err == nil {
		t.Error("expected error for duplicate environment topic")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("expected error for nil system")
	}
}

func TestModeUnknownModule(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	exec := newTestExec(t, m)
	if _, err := exec.Mode("ghost"); err == nil {
		t.Error("expected error for unknown module")
	}
}

func TestCoordinatedSwitching(t *testing.T) {
	// Two modules on disjoint topics; a coordination link from A to B. When
	// A's DM disengages, B is demoted in the same instant without its own
	// DM having decided anything.
	mkMod := func(name, prefix string) *rta.Module {
		dangerT := pubsub.TopicName(prefix + "/danger")
		calmT := pubsub.TopicName(prefix + "/calm")
		outT := pubsub.TopicName(prefix + "/cmd")
		mk := func(nn string) *node.Node {
			n, err := node.New(nn, 100*time.Millisecond,
				[]pubsub.TopicName{dangerT, calmT}, []pubsub.TopicName{outT},
				func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
					return st, nil, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		m, err := rta.NewModule(rta.Decl{
			Name:  name,
			AC:    mk(name + ".ac"),
			SC:    mk(name + ".sc"),
			Delta: 100 * time.Millisecond,
			TTF2Delta: func(v pubsub.Valuation) bool {
				b, _ := v[dangerT].(bool)
				return b
			},
			InSafer: func(v pubsub.Valuation) bool {
				b, _ := v[calmT].(bool)
				return b
			},
			DMPhase: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ma := mkMod("A", "a")
	mb := mkMod("B", "b")
	sys, err := rta.NewSystem([]*rta.Module{ma, mb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCoordination("A", "B"); err != nil {
		t.Fatal(err)
	}
	// Link validation.
	if err := sys.AddCoordination("A", "B"); err == nil {
		t.Error("duplicate coordination accepted")
	}
	if err := sys.AddCoordination("A", "A"); err == nil {
		t.Error("self coordination accepted")
	}
	if err := sys.AddCoordination("A", "ghost"); err == nil {
		t.Error("unknown module accepted")
	}

	var switches []obs.ModeSwitch
	exec, err := New(sys, []pubsub.Topic{
		{Name: "a/danger", Default: false}, {Name: "a/calm", Default: true},
		{Name: "b/danger", Default: false}, {Name: "b/calm", Default: true},
	}, recordSwitches(&switches))
	if err != nil {
		t.Fatal(err)
	}
	// Both modules engage their ACs at the first DM tick (calm).
	if err := exec.RunUntil(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"A", "B"} {
		if mode, _ := exec.Mode(m); mode != rta.ModeAC {
			t.Fatalf("module %s mode = %v, want AC", m, mode)
		}
	}
	// Danger for A only; B's own predicates stay calm, but the coordination
	// link must demote it anyway.
	if err := exec.Topics().Set("a/danger", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.Topics().Set("b/calm", false); err != nil {
		t.Fatal(err) // keep B from instantly re-engaging
	}
	if err := exec.RunUntil(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if mode, _ := exec.Mode("A"); mode != rta.ModeSC {
		t.Errorf("A mode = %v, want SC", mode)
	}
	if mode, _ := exec.Mode("B"); mode != rta.ModeSC {
		t.Errorf("B mode = %v, want SC (coordinated)", mode)
	}
	if !exec.OutputEnabled("B.sc") || exec.OutputEnabled("B.ac") {
		t.Error("coordinated demotion did not flip B's output enables")
	}
	if !slices.ContainsFunc(switches, func(sw obs.ModeSwitch) bool { return sw.Module == "B" && sw.Coordinated }) {
		t.Fatal("no coordinated switch emitted for B")
	}
	// B re-engages through its own DM once calm again.
	if err := exec.Topics().Set("b/calm", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(350 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if mode, _ := exec.Mode("B"); mode != rta.ModeAC {
		t.Errorf("B did not re-engage after coordination: %v", mode)
	}
}

// TestRunHonoursContext: a cancelled context stops Run between instants
// with the context's error; the executor stays consistent and resumable.
func TestRunHonoursContext(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	exec := newTestExec(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := exec.Run(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if exec.Now() != 0 {
		t.Errorf("cancelled-before-start run advanced to %v", exec.Now())
	}
	// The executor resumes cleanly under a live context.
	if err := exec.Run(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	if exec.Now() != time.Second {
		t.Errorf("resumed run stopped at %v", exec.Now())
	}
}

// TestExecutorEventStream: the executor emits TimeProgress per instant,
// NodeFired per firing (DMs flagged, drops flagged), and ModeSwitch events
// at every mode change — in a deterministic order.
func TestExecutorEventStream(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	rec := obs.NewRecorder(0)
	drops := 0
	exec := newTestExec(t, m,
		WithObservers(rec),
		WithDropFilter(func(ct time.Duration, name string) bool {
			// Drop exactly one SC firing mid-run.
			if name == "tm.sc" && ct == 300*time.Millisecond && drops == 0 {
				drops++
				return true
			}
			return false
		}),
	)
	if err := exec.Topics().Set("calm", true); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var progresses, fired, dmFired, dropped int
	var switches []obs.ModeSwitch
	for _, e := range rec.Events() {
		switch ev := e.(type) {
		case obs.TimeProgress:
			progresses++
		case obs.NodeFired:
			if ev.Dropped {
				dropped++
				if ev.Node != "tm.sc" {
					t.Errorf("dropped firing attributed to %q", ev.Node)
				}
				continue
			}
			fired++
			if ev.DM {
				dmFired++
			}
		case obs.ModeSwitch:
			switches = append(switches, ev)
		}
	}
	// 5 instants (100..500ms), each firing DM + both controllers; one SC
	// firing dropped.
	if progresses != 5 {
		t.Errorf("TimeProgress events = %d, want 5", progresses)
	}
	if dmFired != 5 {
		t.Errorf("DM firings = %d, want 5", dmFired)
	}
	if dropped != 1 {
		t.Errorf("dropped firings = %d, want 1", dropped)
	}
	if fired != 5*3-1 {
		t.Errorf("executed firings = %d, want %d", fired, 5*3-1)
	}
	want := []obs.ModeSwitch{{T: 100 * time.Millisecond, Module: "tm", From: rta.ModeSC, To: rta.ModeAC, Reason: rta.ReasonRecovery}}
	if !reflect.DeepEqual(switches, want) {
		t.Errorf("ModeSwitch events %+v, want %+v", switches, want)
	}
}

// TestInvariantViolationEvent: the event names the module and the mode the
// DM step left it in, and the monitor checks φsafe in AC mode too.
func TestInvariantViolationEvent(t *testing.T) {
	m := testModule(t, 100*time.Millisecond)
	rec := obs.NewRecorder(0)
	exec := newTestExec(t, m, WithObservers(rec))
	for _, topic := range []pubsub.TopicName{"calm", "crashed"} {
		if err := exec.Topics().Set(topic, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := exec.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var events []obs.InvariantViolation
	for _, e := range rec.Events() {
		if v, ok := e.(obs.InvariantViolation); ok {
			events = append(events, v)
		}
	}
	want := []obs.InvariantViolation{
		{T: 100 * time.Millisecond, Module: "tm", Mode: rta.ModeAC},
		{T: 200 * time.Millisecond, Module: "tm", Mode: rta.ModeAC},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("InvariantViolation events %+v, want %+v", events, want)
	}
}

// idleNode is a plain node on the given time-table that reads and publishes
// nothing.
func idleNode(t *testing.T, name string, period, phase time.Duration) *node.Node {
	t.Helper()
	n, err := node.New(name, period, nil, nil,
		func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			return st, nil, nil
		}, node.WithPhase(phase))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// firingSets runs the system for n time progresses and returns, per
// instant, its time and the name-sorted firing set handed to the
// ScheduleOrder hook.
func firingSets(t *testing.T, sys *rta.System, n int) ([]time.Duration, [][]string) {
	t.Helper()
	var times []time.Duration
	var sets [][]string
	exec, err := New(sys, nil, WithScheduleOrder(func(ct time.Duration, firing []string) []string {
		times = append(times, ct)
		sets = append(sets, firing)
		return firing
	}))
	if err != nil {
		t.Fatal(err)
	}
	for len(times) < n {
		if ok, err := exec.Step(); err != nil || !ok {
			t.Fatalf("Step = %v, %v at t=%v", ok, err, exec.Now())
		}
	}
	return times, sets
}

// TestNextInstant: time progresses to the earliest entry of any node's
// time-table, and the ScheduleOrder hook receives the nodes firing then in
// sorted name order.
func TestNextInstant(t *testing.T) {
	sys, err := rta.NewSystem(nil, []*node.Node{
		idleNode(t, "slow", 100*time.Millisecond, 0),
		idleNode(t, "fast", 20*time.Millisecond, 0),
		idleNode(t, "offset", 100*time.Millisecond, 10*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	times, sets := firingSets(t, sys, 6)
	wantTimes := []time.Duration{10, 20, 40, 60, 80, 100}
	for i := range wantTimes {
		wantTimes[i] *= time.Millisecond
	}
	wantSets := [][]string{{"offset"}, {"fast"}, {"fast"}, {"fast"}, {"fast"}, {"fast", "slow"}}
	if !reflect.DeepEqual(times, wantTimes) || !reflect.DeepEqual(sets, wantSets) {
		t.Errorf("instants %v firing %v, want %v %v", times, sets, wantTimes, wantSets)
	}
}

// TestEmptySystemHasNoNextInstant: with no nodes there is no transition.
func TestEmptySystemHasNoNextInstant(t *testing.T) {
	sys, err := rta.NewSystem(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := New(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := exec.Step(); ok || err != nil {
		t.Errorf("Step = %v, %v; want no transition", ok, err)
	}
	if err := exec.RunUntil(time.Second); err != nil || exec.Now() != 0 {
		t.Errorf("RunUntil = %v at t=%v; want nil at 0", err, exec.Now())
	}
}

// TestFiringSetConsistency: over 200 instants, time strictly advances to
// the earliest NextAfter of the nodes' schedules; the firing set handed to
// the ScheduleOrder hook is exactly the nodes whose schedule fires then; and
// the default order fires the same set (DMs first, then the rest, each
// sorted) at the same instants.
func TestFiringSetConsistency(t *testing.T) {
	nodes := []*node.Node{
		idleNode(t, "a", 30*time.Millisecond, 0),
		idleNode(t, "b", 70*time.Millisecond, 10*time.Millisecond),
		idleNode(t, "c", 110*time.Millisecond, 0),
	}
	m := testModule(t, 50*time.Millisecond)
	sys, err := rta.NewSystem([]*rta.Module{m}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	names := sys.NodeNames()
	const instants = 200
	times, sets := firingSets(t, sys, instants)

	ct := time.Duration(0)
	for i, next := range times {
		var want []string
		earliest := time.Duration(-1)
		for _, name := range names {
			n, _ := sys.Node(name)
			if at := n.Schedule().NextAfter(ct); earliest < 0 || at < earliest {
				earliest = at
			}
			if n.Schedule().FiresAt(next) {
				want = append(want, name)
			}
		}
		if next != earliest {
			t.Fatalf("instant %d: time progressed %v -> %v, earliest entry is %v", i, ct, next, earliest)
		}
		if !reflect.DeepEqual(sets[i], want) {
			t.Fatalf("firing set at %v = %v, want %v", next, sets[i], want)
		}
		ct = next
	}

	// The default order: record which nodes fired at each instant.
	byInstant := map[time.Duration][]string{}
	var order []time.Duration
	exec, err := New(sys, []pubsub.Topic{
		{Name: "danger", Default: false},
		{Name: "calm", Default: false},
		{Name: "crashed", Default: false},
	}, WithObservers(obs.ObserverFunc(func(e obs.Event) {
		switch ev := e.(type) {
		case obs.TimeProgress:
			order = append(order, ev.T)
		case obs.NodeFired:
			byInstant[ev.T] = append(byInstant[ev.T], ev.Node)
		}
	})))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(times[instants-1]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, times) {
		t.Fatalf("default order progressed through %d instants, custom order through %d", len(order), len(times))
	}
	for i, at := range times {
		got := byInstant[at]
		dms := 0
		for dms < len(got) {
			if _, isDM := sys.IsDM(got[dms]); !isDM {
				break
			}
			dms++
		}
		if !slices.IsSorted(got[:dms]) || !slices.IsSorted(got[dms:]) {
			t.Fatalf("default order at %v = %v, want DMs then the rest, each sorted", at, got)
		}
		if sorted := slices.Sorted(slices.Values(got)); !reflect.DeepEqual(sorted, sets[i]) {
			t.Fatalf("default order fired %v at %v, firing set is %v", got, at, sets[i])
		}
	}
}
