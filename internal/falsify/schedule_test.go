package falsify

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// newTestEngine builds an engine around the planted base for direct
// accounting tests.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReportSchedulesAccounting(t *testing.T) {
	base := plantedScenario(t)
	e := newTestEngine(t, Config{Scenario: base, Strategy: "schedule", Seed: 1, Budget: 64})

	crash := ScheduleViolation{
		Choices: []int{0, 2, 1},
		Verdict: Verdict{Crashed: true, Collisions: 1, CrashTime: int64(30 * time.Millisecond)},
	}
	inv := ScheduleViolation{
		Choices: []int{1, 0, 0},
		Seed:    7,
		Verdict: Verdict{InvariantViolations: 1},
	}
	e.ReportSchedules(&ScheduleReport{Schedules: 10, Violations: []ScheduleViolation{crash, inv}})

	if e.Remaining() != 54 {
		t.Errorf("remaining = %d, want 54 (10 schedules spent)", e.Remaining())
	}
	res := e.Result()
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

	// Re-reporting the same choice vector is deduplicated, but still costs
	// budget (the schedule did run).
	e.ReportSchedules(&ScheduleReport{Schedules: 3, Violations: []ScheduleViolation{crash}})
	res = e.Result()
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
	cfg := Config{
		Scenario: base,
		Strategy: "schedule",
		Seed:     1,
		Budget:   4,
		Duration: 500 * time.Millisecond,
		// Fewer modules, tractable branching — the usual schedule-strategy base.
		Base: Params{NoPlannerModule: &off, NoBatteryModule: &off},
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
