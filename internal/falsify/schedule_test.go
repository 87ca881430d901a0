package falsify

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pubsub"
	"repro/internal/rta"
	"repro/internal/runtime"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// newTestEngine builds an engine around the planted base for direct
// accounting tests.
func newTestEngine(t *testing.T, cfg Config) *engine {
	t.Helper()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Schedule runs file through the same account as candidates: every run
// spends budget, violations rank by severity, a repeated choice vector is
// deduplicated, and random-mode finds keep their seed.
func TestScheduleAccounting(t *testing.T) {
	base := plantedScenario(t)
	e := newTestEngine(t, Config{Scenario: base, Strategy: "schedule", Seed: 1, Budget: 64})

	crash := &sim.Result{Metrics: sim.Metrics{Crashed: true, Collisions: 1, CrashTime: 30 * time.Millisecond}}
	inv := &sim.Result{Metrics: sim.Metrics{InvariantViolations: 1}}
	for i := range 8 {
		e.fileSchedule(&schedule{chosen: []int{0, 0, i}}, &sim.Result{}, nil)
	}
	e.fileSchedule(&schedule{chosen: []int{0, 2, 1}}, crash, nil)
	e.fileSchedule(&schedule{chosen: []int{1, 0, 0}, seed: 7}, inv, nil)

	if e.remaining() != 54 {
		t.Errorf("remaining = %d, want 54 (10 schedules spent)", e.remaining())
	}
	res := e.result()
	if res.Executions != 10 || len(res.Counterexamples) != 2 {
		t.Fatalf("executions=%d counterexamples=%d", res.Executions, len(res.Counterexamples))
	}
	// Crash outranks invariant.
	top, second := res.Counterexamples[0], res.Counterexamples[1]
	if top.Category != CategoryCrash || second.Category != CategoryInvariant {
		t.Errorf("ranking: %q then %q", top.Category, second.Category)
	}
	if len(top.Schedule) != 3 || top.Fingerprint == "" || top.Name != "" {
		t.Errorf("schedule counterexample malformed: %+v", top)
	}
	if second.ScheduleSeed != 7 {
		t.Errorf("random-mode provenance seed lost: %+v", second)
	}

	// Re-filing the same choice vector is deduplicated, but still costs
	// budget (the schedule did run).
	for range 3 {
		e.fileSchedule(&schedule{chosen: []int{0, 2, 1}}, crash, nil)
	}
	res = e.result()
	if res.Executions != 13 || len(res.Counterexamples) != 2 {
		t.Errorf("after duplicate report: executions=%d counterexamples=%d", res.Executions, len(res.Counterexamples))
	}
}

func TestScheduleFingerprintDistinguishesVectors(t *testing.T) {
	a := scheduleFingerprint("base", []int{0, 1, 2})
	b := scheduleFingerprint("base", []int{0, 1, 3})
	c := scheduleFingerprint("other", []int{0, 1, 2})
	if a == b || a == c {
		t.Errorf("fingerprint collisions: %s %s %s", a, b, c)
	}
	if a != scheduleFingerprint("base", []int{0, 1, 2}) {
		t.Error("fingerprint not deterministic")
	}
}

// The schedule strategy spends its budget on real interleavings of the base
// scenario and is deterministic like every other strategy.
func TestScheduleStrategyDeterministicSpend(t *testing.T) {
	base := plantedScenario(t)
	off := true
	horizon := 500 * time.Millisecond
	cfg := Config{
		Scenario: base,
		Strategy: "schedule",
		Seed:     1,
		Budget:   4,
		// Fewer modules, tractable branching — the usual schedule-strategy base.
		Base: scenario.Delta{NoPlannerModule: &off, NoBatteryModule: &off, Duration: &horizon},
	}
	var want []byte
	for i := 0; i < 2; i++ {
		res, err := Campaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Executions == 0 || res.Executions > res.Budget {
			t.Fatalf("executions = %d of budget %d", res.Executions, res.Budget)
		}
		if res.Strategy != "schedule" {
			t.Errorf("strategy = %q", res.Strategy)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("schedule campaign not deterministic:\n got %s\nwant %s", got, want)
		}
	}
}

// Random mode draws its seeds lazily: a huge seed count with a budget of
// one runs one schedule, without materialising the seed list first.
func TestScheduleSeedsBoundedByBudget(t *testing.T) {
	horizon := 200 * time.Millisecond
	res, err := Campaign(context.Background(), Config{
		Scenario: plantedScenario(t),
		Strategy: "schedule:2000000000",
		Budget:   1,
		Base:     scenario.Delta{Duration: &horizon},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 1 {
		t.Errorf("executions = %d, want 1", res.Executions)
	}
}

// Schedule counterexamples on the planted base (jitter on every node)
// replay to exactly the verdict they were filed with, directly and after a
// corpus round trip.
func TestScheduleCounterexamplesReplay(t *testing.T) {
	res, err := Campaign(context.Background(), Config{Scenario: plantedScenario(t), Strategy: "schedule", Seed: 1, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexamples) == 0 {
		t.Fatalf("schedule campaign filed nothing on the planted base: %+v", res)
	}
	entries := res.Entries("schedule replay test", 0)
	dir := t.TempDir()
	if _, err := WriteCorpus(dir, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(entries) {
		t.Fatalf("loaded %d of %d entries", len(loaded), len(entries))
	}
	byFP := make(map[string]CorpusEntry, len(loaded))
	for _, l := range loaded {
		byFP[l.Fingerprint] = l
	}
	for _, ce := range res.Counterexamples {
		if len(ce.Schedule) == 0 || ce.Name != "" {
			t.Errorf("%s: not a schedule counterexample: %+v", ce.Fingerprint, ce)
		}
		v, err := ce.Replay(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, ce.Verdict) {
			t.Errorf("%s: replayed %+v, filed %+v", ce.Fingerprint, v, ce.Verdict)
		}
		l := byFP[ce.Fingerprint]
		if !reflect.DeepEqual(l.Counterexample, ce) {
			t.Errorf("%s: corpus round trip changed the entry:\n got %+v\nwant %+v", ce.Fingerprint, l.Counterexample, ce)
		}
		lv, skipped, err := l.Replay(context.Background())
		if err != nil || skipped {
			t.Fatalf("%s: corpus replay: skipped=%v err=%v", ce.Fingerprint, skipped, err)
		}
		if !reflect.DeepEqual(lv, ce.Verdict) || !l.StillFalsifies(lv) {
			t.Errorf("%s: corpus entry replayed %+v, filed %+v", ce.Fingerprint, lv, ce.Verdict)
		}
	}
}

// buildToggleSystem builds a module whose safety depends only on the
// interleaving of nodes firing at the same instant: writers "bad" and "good"
// each publish their round count every 10ms, and a mailbox node raises
// danger when it reads more "bad" rounds than "good" ones — which happens
// only when it fires between the two writers. The module's φsafe is ¬danger
// at DM sampling instants, so the default order (writers, then mailbox) is
// safe and some other schedules violate φInv: the class of interleaving bugs
// the schedule strategy hunts.
func buildToggleSystem() (*rta.System, error) {
	writer := func(name string) (*node.Node, error) {
		topic := "danger/" + pubsub.TopicName(name)
		return node.New(name, 10*time.Millisecond, nil, []pubsub.TopicName{topic},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				rounds, _ := st.(int)
				rounds++
				return rounds, pubsub.Valuation{topic: rounds}, nil
			})
	}
	mailbox, err := node.New("mailbox", 10*time.Millisecond,
		[]pubsub.TopicName{"danger/bad", "danger/good"}, []pubsub.TopicName{"danger"},
		func(st node.State, in pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			bad, _ := in["danger/bad"].(int)
			good, _ := in["danger/good"].(int)
			return st, pubsub.Valuation{"danger": bad > good}, nil
		})
	if err != nil {
		return nil, err
	}
	bad, err := writer("bad")
	if err != nil {
		return nil, err
	}
	good, err := writer("good")
	if err != nil {
		return nil, err
	}
	// AC and SC both idle; the module just monitors.
	mkCtrl := func(name string) (*node.Node, error) {
		return node.New(name, 10*time.Millisecond, []pubsub.TopicName{"danger/bad"}, []pubsub.TopicName{"cmd"},
			func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
				return st, nil, nil
			})
	}
	ac, err := mkCtrl("m.ac")
	if err != nil {
		return nil, err
	}
	sc, err := mkCtrl("m.sc")
	if err != nil {
		return nil, err
	}
	danger := func(v pubsub.Valuation) bool { b, _ := v["danger"].(bool); return b }
	mod, err := rta.NewModule(rta.Decl{
		Name:      "m",
		AC:        ac,
		SC:        sc,
		Delta:     10 * time.Millisecond,
		TTF2Delta: danger,
		InSafer:   func(v pubsub.Valuation) bool { return !danger(v) },
		Safe:      func(v pubsub.Valuation) bool { return !danger(v) },
		Monitored: []pubsub.TopicName{"danger"},
		DMPhase:   10 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	return rta.NewSystem([]*rta.Module{mod}, []*node.Node{bad, good, mailbox})
}

// buildSoloSystem is a one-node system: every choice point has branching 1.
func buildSoloSystem() (*rta.System, error) {
	n, err := node.New("solo", 10*time.Millisecond, nil, []pubsub.TopicName{"t"},
		func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			return st, pubsub.Valuation{"t": 1}, nil
		})
	if err != nil {
		return nil, err
	}
	return rta.NewSystem(nil, []*node.Node{n})
}

// violation is the first φInv failure runChecked saw: the event, and the
// schedule's choice vector and seed when it was emitted.
type violation struct {
	choices []int
	seed    int64
	ev      obs.InvariantViolation
}

// runChecked runs a fresh system through every instant up to horizon with
// the schedule's order installed, returning the first φInv violation the
// executor reported (nil on a clean run).
func runChecked(t *testing.T, build func() (*rta.System, error), horizon time.Duration, sch *schedule) *violation {
	t.Helper()
	sys, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var first *violation
	record := obs.ObserverFunc(func(e obs.Event) {
		if ev, ok := e.(obs.InvariantViolation); ok && first == nil {
			first = &violation{choices: append([]int(nil), sch.chosen...), seed: sch.seed, ev: ev}
		}
	})
	exec, err := runtime.New(sys, nil, runtime.WithScheduleOrder(sch.order), runtime.WithObservers(record))
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(context.Background(), horizon); err != nil {
		t.Fatal(err)
	}
	return first
}

// errFound stops an exploration at its first violation.
var errFound = errors.New("violation found")

// hunt explores the system with the strategy's enumeration loop until the
// first violation or until budget schedules ran.
func hunt(t *testing.T, build func() (*rta.System, error), horizon time.Duration, seeds, budget int) (found *violation, runs int, exhausted bool) {
	t.Helper()
	exhausted, err := exploreSchedules(context.Background(), seeds, 1, func() int { return budget - runs }, func(sch *schedule) error {
		runs++
		if found = runChecked(t, build, horizon, sch); found != nil {
			return errFound
		}
		return nil
	})
	if err != nil && !errors.Is(err, errFound) {
		t.Fatal(err)
	}
	return found, runs, exhausted
}

func TestExhaustiveFindsInterleavingViolation(t *testing.T) {
	v, runs, _ := hunt(t, buildToggleSystem, 50*time.Millisecond, 0, 4000)
	if v == nil {
		t.Fatalf("exhaustive exploration missed the schedule-dependent violation in %d schedules", runs)
	}
	if v.ev.Module != "m" {
		t.Fatalf("violation in module %q, want m", v.ev.Module)
	}
	// The default order (the all-zero first vector) is safe: the violation
	// is interleaving-only.
	if runs < 2 {
		t.Errorf("first schedule already violated: %+v", v)
	}
}

// Feeding a violation's choice vector back reproduces it exactly, and the
// empty vector (the default order) replays the safe system clean.
func TestReplaySchedule(t *testing.T) {
	want, _, _ := hunt(t, buildToggleSystem, 50*time.Millisecond, 0, 4000)
	if want == nil {
		t.Fatal("no violation to replay")
	}
	got := runChecked(t, buildToggleSystem, want.ev.T, &schedule{prefix: want.choices})
	if got == nil {
		t.Fatal("replay no longer reproduces the violation")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay diverged: got %+v, want %+v", got, want)
	}
	if clean := runChecked(t, buildSoloSystem, 50*time.Millisecond, &schedule{}); clean != nil {
		t.Errorf("safe system replayed as violating: %+v", clean)
	}
}

func TestRandomModeFindsViolation(t *testing.T) {
	v, runs, _ := hunt(t, buildToggleSystem, 50*time.Millisecond, 60, 60)
	if v == nil {
		t.Fatalf("random exploration missed the violation across %d seeds", runs)
	}
	if v.seed == 0 {
		t.Error("random violation should record its seed")
	}
}

func TestExhaustiveTerminatesOnSafeSystem(t *testing.T) {
	v, runs, exhausted := hunt(t, buildSoloSystem, 100*time.Millisecond, 0, 100)
	// One node: every choice point has branching 1, so the tree has exactly
	// one schedule.
	if !exhausted || runs != 1 || v != nil {
		t.Errorf("exhausted=%v runs=%d violation=%+v", exhausted, runs, v)
	}
}

func TestPermute(t *testing.T) {
	s := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for idx := 0; idx < 6; idx++ {
		got := permute(s, idx)
		key := fmt.Sprint(got)
		if seen[key] {
			t.Fatalf("permutation %d repeated %v", idx, got)
		}
		seen[key] = true
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, s) {
			t.Fatalf("permute(%d) = %v is not a permutation", idx, got)
		}
	}
	// Index 0 is the identity.
	if !reflect.DeepEqual(permute(s, 0), s) {
		t.Error("permute(0) is not the identity")
	}
	// The last index reverses.
	if got := permute(s, 5); !reflect.DeepEqual(got, []string{"c", "b", "a"}) {
		t.Errorf("permute(5) = %v", got)
	}
	// The input is not modified.
	if !reflect.DeepEqual(s, []string{"a", "b", "c"}) {
		t.Error("permute mutated its input")
	}
	// Past the branching cap, low indices permute only the tail.
	long := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if got := permute(long, 1); !reflect.DeepEqual(got, []string{"a", "b", "c", "d", "e", "f", "h", "g"}) {
		t.Errorf("permute(8 nodes, 1) = %v", got)
	}
}

func TestNextVector(t *testing.T) {
	for i, tt := range []struct {
		chosen, branching, want []int
	}{
		{[]int{0, 0}, []int{2, 2}, []int{0, 1}},
		{[]int{0, 1}, []int{2, 2}, []int{1}},
		{[]int{1, 1}, []int{2, 2}, nil},
		{nil, nil, nil},
		// Branching-1 positions can never be incremented.
		{[]int{0, 2, 0}, []int{1, 3, 1}, nil},
		{[]int{0, 1, 0}, []int{1, 3, 1}, []int{0, 2}},
	} {
		if got := nextVector(tt.chosen, tt.branching); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("case %d: nextVector(%v, %v) = %v, want %v", i, tt.chosen, tt.branching, got, tt.want)
		}
	}
}

func TestBranchingOf(t *testing.T) {
	for k, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 10: 720} {
		if got := branchingOf(k); got != want {
			t.Errorf("branchingOf(%d) = %d, want %d", k, got, want)
		}
	}
}
