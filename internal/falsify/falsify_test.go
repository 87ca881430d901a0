package falsify

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// eventRecorder captures the campaign event stream for assertions.
type eventRecorder struct {
	progress []obs.CampaignProgress
	finds    []obs.CounterexampleFound
}

func (r *eventRecorder) Interests() obs.KindSet {
	return obs.Kinds(obs.KindCampaignProgress, obs.KindCounterexample)
}

func (r *eventRecorder) OnEvent(ev obs.Event) {
	switch e := ev.(type) {
	case obs.CampaignProgress:
		r.progress = append(r.progress, e)
	case obs.CounterexampleFound:
		r.finds = append(r.finds, e)
	}
}

// plantedScenario registers (once) a deliberately unsafe base: SC/DM outage
// bursts on every node, a tight planning margin and an early fault window.
// The RTA story genuinely breaks around this configuration, so any competent
// strategy must find counterexamples within a small budget — the planted-bug
// fixture of the package.
func plantedScenario(t *testing.T) string {
	t.Helper()
	plantedOnce.Do(func() {
		if err := scenario.Register(scenario.Spec{
			Name:        "falsify-test/planted",
			Description: "test fixture: jitter on all nodes at a tight margin",
			Targets: []geom.Vec3{
				geom.V(3, 3, 2), geom.V(46, 3, 2.5), geom.V(46, 46, 2),
			},
			PlanMargin: 0.45,
			JitterProb: 0.05,
			Faults: scenario.FaultProfile{
				First: 500 * time.Millisecond,
				Every: 2 * time.Second,
				Len:   1500 * time.Millisecond,
				Dir:   geom.V(1, 0.4, 0),
			},
			Duration: 4 * time.Second,
		}); err != nil {
			t.Fatalf("register planted scenario: %v", err)
		}
	})
	return "falsify-test/planted"
}

var plantedOnce sync.Once

// The planted unsafe configuration must be found by more than one strategy
// within a small budget, and each find must carry everything needed to
// replay it deterministically.
func TestPlantedBugFoundByMultipleStrategies(t *testing.T) {
	base := plantedScenario(t)
	for _, strat := range []string{"random", "guided:4"} {
		t.Run(strat, func(t *testing.T) {
			res, err := Campaign(context.Background(), Config{
				Scenario:     base,
				Strategy:     strat,
				Seed:         1,
				Budget:       12,
				AutoRegister: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Executions != 12 {
				t.Errorf("executions = %d, want the full budget 12", res.Executions)
			}
			if len(res.Counterexamples) == 0 {
				t.Fatalf("strategy %s missed the planted bug in %d executions", strat, res.Budget)
			}
			ce := res.Counterexamples[0]
			if ce.Category != CategoryCrash {
				t.Errorf("top counterexample category = %q, want %q", ce.Category, CategoryCrash)
			}
			if ce.Fingerprint == "" || ce.Policy == "" || ce.Strategy == "" {
				t.Errorf("counterexample missing identity fields: %+v", ce)
			}

			// The find auto-registered as a named regression scenario...
			reg, err := scenario.Resolve(ce.Name, scenario.Delta{})
			if err != nil {
				t.Fatalf("counterexample %s not registered as scenario %q: %v", ce.Fingerprint, ce.Name, err)
			}
			if fp, err := reg.Fingerprint(ce.Candidate.Seed); err != nil || fp != ce.Fingerprint {
				t.Errorf("registered scenario %q fingerprints %s (%v), want %s", ce.Name, fp, err, ce.Fingerprint)
			}
			// ...whose fingerprint pins the exact spec the campaign ran.
			spec, err := ce.Rebuild()
			if err != nil {
				t.Fatal(err)
			}
			fp, err := spec.Fingerprint(ce.Candidate.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if fp != ce.Fingerprint {
				t.Errorf("rebuilt fingerprint %s != filed %s", fp, ce.Fingerprint)
			}
			// Replaying reproduces the violation, same category.
			v, err := ce.Replay(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := v.Category(DefaultClampStorm); got != ce.Category {
				t.Errorf("replay category = %q, want %q (verdict %+v)", got, ce.Category, v)
			}
		})
	}
}

// A campaign's ranked result must be byte-identical at any worker count —
// the determinism contract the serving layer and the corpus rely on. Run
// under -race this also exercises the engine/fleet concurrency.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base := plantedScenario(t)
	for _, strat := range []string{"random", "guided:4"} {
		t.Run(strat, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				res, err := Campaign(context.Background(), Config{
					Scenario: base,
					Strategy: strat,
					Seed:     7,
					Budget:   8,
					Workers:  workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if string(got) != string(want) {
					t.Errorf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

func TestCampaignRankingAndBound(t *testing.T) {
	base := plantedScenario(t)
	full, err := Campaign(context.Background(), Config{
		Scenario: base, Seed: 1, Budget: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Counterexamples) < 2 {
		t.Skipf("need >=2 finds to check ranking, got %d", len(full.Counterexamples))
	}
	for i := 1; i < len(full.Counterexamples); i++ {
		a, b := full.Counterexamples[i-1], full.Counterexamples[i]
		if a.Severity < b.Severity {
			t.Errorf("ranking not severity-descending at %d: %.1f < %.1f", i, a.Severity, b.Severity)
		}
		if a.Severity == b.Severity && a.Fingerprint > b.Fingerprint {
			t.Errorf("tie at %d not fingerprint-ascending", i)
		}
	}
	bounded, err := Campaign(context.Background(), Config{
		Scenario: base, Seed: 1, Budget: 12, MaxCounterexamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded.Counterexamples) != 1 {
		t.Errorf("MaxCounterexamples=1 kept %d", len(bounded.Counterexamples))
	}
	if bounded.Counterexamples[0].Fingerprint != full.Counterexamples[0].Fingerprint {
		t.Error("bound did not keep the top-ranked counterexample")
	}
}

func TestConfigValidate(t *testing.T) {
	base := plantedScenario(t)
	negative := -5 * time.Second
	cases := map[string]Config{
		"missing scenario": {},
		"unknown scenario": {Scenario: "no-such-scenario"},
		"unknown strategy": {Scenario: base, Strategy: "annealing"},
		"bad strategy arg": {Scenario: base, Strategy: "random:3"},
		"negative budget":  {Scenario: base, Budget: -1},
		"bad policy pool":  {Scenario: base, Policies: []string{"not-a-policy"}},
		"bad base params":  {Scenario: base, Base: scenario.Delta{PlannerBug: "not-a-bug"}},
		"negative horizon": {Scenario: base, Base: scenario.Delta{Duration: &negative}},
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := (Config{Scenario: base}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCampaignCancellation(t *testing.T) {
	base := plantedScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Campaign(ctx, Config{Scenario: base, Seed: 1, Budget: 8})
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if res == nil {
		t.Fatal("cancelled campaign dropped its partial result")
	}
	if res.Executions != 0 {
		t.Errorf("pre-cancelled campaign accounted %d executions", res.Executions)
	}
}

// Campaign events must arrive in deterministic order with a monotone
// pseudo-clock, and the progress stream must end exactly at the budget.
func TestCampaignProgressStream(t *testing.T) {
	base := plantedScenario(t)
	var rec eventRecorder
	res, err := Campaign(context.Background(), Config{
		Scenario:  base,
		Seed:      1,
		Budget:    12,
		Observers: []obs.Observer{&rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.progress) == 0 {
		t.Fatal("no CampaignProgress events")
	}
	last := rec.progress[len(rec.progress)-1]
	if last.Executions != res.Executions || last.Budget != res.Budget {
		t.Errorf("final progress %+v does not match result (%d/%d)", last, res.Executions, res.Budget)
	}
	if len(rec.finds) != len(res.Counterexamples) {
		t.Errorf("%d CounterexampleFound events for %d counterexamples", len(rec.finds), len(res.Counterexamples))
	}
}
