package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/mission"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. A job moves queued → running → one of the terminal
// states; cancellation is honoured both while queued and mid-run.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Duration is a time.Duration that marshals as a Go duration string ("1m30s")
// and unmarshals from either that form or integer nanoseconds — the
// human-friendly wire form of the job API.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var raw any
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	switch v := raw.(type) {
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("duration %q: %w", v, err)
		}
		*d = Duration(parsed)
		return nil
	case float64:
		*d = Duration(time.Duration(v))
		return nil
	default:
		return fmt.Errorf("duration must be a string like \"30s\" or integer nanoseconds, got %T", raw)
	}
}

// present returns d as a Delta knob: nil when zero, the wire form's "absent".
func (d Duration) present() *time.Duration {
	if d == 0 {
		return nil
	}
	v := time.Duration(d)
	return &v
}

// Overrides is the declarative override set a job may apply on top of its
// base scenario: /jobs' wire form of a scenario.Delta (duration and motion
// delta as Go duration strings) plus two /jobs-only knobs. Pointer fields
// distinguish "not overridden" from an explicit zero. The overridden spec
// (not the override set) is what gets canonically hashed, so two jobs
// reaching the same effective spec share cache entries regardless of how
// they spelled it.
type Overrides struct {
	// Duration replaces the mission length.
	Duration Duration `json:"duration,omitempty"`
	// Protection selects the motion layer by its mission.ProtectionMode name.
	Protection string `json:"protection,omitempty"`
	// AC selects the untrusted motion primitive by its mission.ACKind name.
	AC string `json:"ac,omitempty"`
	// PlannerBug injects an RRT* defect by its plan.Bug name; PlannerBugRate
	// sets its trigger probability.
	PlannerBug     string   `json:"planner_bug,omitempty"`
	PlannerBugRate *float64 `json:"planner_bug_rate,omitempty"`
	// JitterProb enables best-effort-scheduling outages; JitterSCOnly
	// restricts them to SC/DM nodes.
	JitterProb   *float64 `json:"jitter_prob,omitempty"`
	JitterSCOnly *bool    `json:"jitter_sc_only,omitempty"`
	// InitialBattery and DrainMultiple override the battery model.
	InitialBattery *float64 `json:"initial_battery,omitempty"`
	DrainMultiple  *float64 `json:"drain_multiple,omitempty"`
	// Hysteresis overrides the φsafer horizon multiplier.
	Hysteresis *float64 `json:"hysteresis,omitempty"`
	// MotionDelta overrides the motion-primitive DM period Δ.
	MotionDelta Duration `json:"motion_delta,omitempty"`
	// Policy selects the motion module's switching policy by spec
	// ("soter-fig9", "sticky-sc:25", "hysteresis", "always-ac", "always-sc").
	Policy string `json:"policy,omitempty"`
}

// resolve returns the named registry spec with the overrides folded in: the
// knobs shared with /certify and /falsify through scenario.Resolve, then the
// two /jobs-only ones through their enums' parsers.
func (o Overrides) resolve(name string) (scenario.Spec, error) {
	s, err := scenario.Resolve(name, scenario.Delta{
		Policy:         o.Policy,
		PlannerBug:     o.PlannerBug,
		PlannerBugRate: o.PlannerBugRate,
		JitterProb:     o.JitterProb,
		JitterSCOnly:   o.JitterSCOnly,
		InitialBattery: o.InitialBattery,
		DrainMultiple:  o.DrainMultiple,
		Hysteresis:     o.Hysteresis,
		MotionDelta:    o.MotionDelta.present(),
		Duration:       o.Duration.present(),
	})
	if err != nil {
		return s, err
	}
	if o.Protection != "" {
		if s.Protection, err = mission.ParseProtection(o.Protection); err != nil {
			return s, err
		}
	}
	if o.AC != "" {
		if s.AC, err = mission.ParseACKind(o.AC); err != nil {
			return s, err
		}
	}
	return s, nil
}

// JobSpec is a batch simulation request: a named scenario from the registry,
// optional declarative overrides, and the seeds to sweep (either an explicit
// list or a contiguous [seed_start, seed_start+seed_count) range). Every
// (overridden spec, seed) pair becomes one independent grid cell.
type JobSpec struct {
	// Scenario names the base spec in the scenario registry.
	Scenario string `json:"scenario"`
	// Overrides is applied on top of the base spec.
	Overrides Overrides `json:"overrides,omitzero"`
	// Seeds lists the sweep's seeds explicitly; mutually exclusive with the
	// range form below. Empty with SeedCount 0 defaults to {1}.
	Seeds []int64 `json:"seeds,omitempty"`
	// SeedStart / SeedCount describe a contiguous seed range.
	SeedStart int64 `json:"seed_start,omitempty"`
	SeedCount int   `json:"seed_count,omitempty"`
	// Workers bounds the job's fleet worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// Compiled by resolve at submit; never on the wire.
	resolved scenario.Spec // base spec with the overrides folded in
	seeds    []int64
	keys     []string // per-seed cache keys, aligned with seeds
}

// request implements kind: a sweep's cells are its seeds.
func (js JobSpec) request() (string, int, int) {
	cells := len(js.Seeds)
	if cells == 0 {
		cells = max(js.SeedCount, 1)
	}
	return js.Scenario, cells, js.Workers
}

// expandSeeds resolves the seed sweep.
func (js JobSpec) expandSeeds() ([]int64, error) {
	if len(js.Seeds) > 0 && (js.SeedCount > 0 || js.SeedStart != 0) {
		return nil, fmt.Errorf("seeds and seed_start/seed_count are mutually exclusive")
	}
	if js.SeedCount < 0 {
		return nil, fmt.Errorf("seed_count %d must be non-negative", js.SeedCount)
	}
	if js.SeedStart != 0 && js.SeedCount == 0 {
		// Silently running the default seed would hand back results for a
		// sweep the client never asked for.
		return nil, fmt.Errorf("seed_start without seed_count")
	}
	if len(js.Seeds) > 0 {
		return js.Seeds, nil
	}
	if js.SeedCount > 0 {
		out := make([]int64, js.SeedCount)
		for i := range out {
			out[i] = js.SeedStart + int64(i)
		}
		return out, nil
	}
	return []int64{1}, nil
}

// resolve implements kind: it validates the request against the scenario
// registry and compiles it into the effective spec, the seed sweep and the
// per-cell cache keys.
func (js JobSpec) resolve() (kind, error) {
	spec, err := js.Overrides.resolve(js.Scenario)
	if err != nil {
		return nil, err
	}
	seeds, err := js.expandSeeds()
	if err != nil {
		return nil, err
	}
	keys, err := spec.Fingerprints(seeds)
	if err != nil {
		return nil, err
	}
	js.resolved, js.seeds, js.keys = spec, seeds, keys
	return js, nil
}

// run implements kind: it sweeps the cells over the fleet engine with the
// tiered result store attached. Every cell goes through the store's
// singleflight group: a miss elects the mission the fill leader, while a
// concurrent identical cell — in this job or any other — waits on the leader
// and shares its bytes. Determinism makes the wait safe: whatever the leader
// produces is exactly what the waiter's own simulation would have produced.
// A failed mission fails the job; the report is kept either way.
func (js JobSpec) run(ctx context.Context, e env) (any, error) {
	var mu sync.Mutex // guards done and cached across workers
	var done, cached int
	rep := fleet.Run(ctx, js.missions(e.fan), fleet.Options{
		Workers: e.workers,
		Store:   e.store,
		OnResult: func(_ int, _ fleet.Mission, res fleet.MissionResult) {
			mu.Lock()
			defer mu.Unlock()
			done++
			if res.Cached {
				cached++
			}
			e.progress(done, cached)
		},
	})
	return rep, rep.FirstErr()
}

// missions expands the sweep into fleet missions keyed by their cell
// fingerprints, with the job's event fan-out attached to every mission's
// observer list.
func (js JobSpec) missions(fan *fanout) []fleet.Mission {
	missions := make([]fleet.Mission, len(js.seeds))
	for i, seed := range js.seeds {
		missions[i] = fleet.Mission{
			Name: fmt.Sprintf("%s/seed-%d", js.resolved.Name, seed),
			Seed: seed,
			Key:  js.keys[i],
			Build: func() (sim.RunConfig, error) {
				cfg, err := js.resolved.Build(seed)
				if err != nil {
					return cfg, err
				}
				cfg.Observers = append(cfg.Observers, fan)
				return cfg, nil
			},
		}
	}
	return missions
}

// view implements kind.
func (js JobSpec) view(v *JobView, result any) {
	v.Spec = js
	v.Report, _ = js.report(result).(*ReportView)
}

// report implements kind: the fleet report's wire form, labelled with the
// canonical switching-policy spec of the resolved scenario ("soter-fig9"
// unless overridden). The spec was validated at submit against rta's fixed
// policy table, so canonicalizing it cannot fail.
func (js JobSpec) report(result any) any {
	rep, _ := result.(*fleet.Report)
	policy, _ := rta.CanonicalPolicySpec(js.resolved.SwitchPolicy)
	return reportView(rep, policy)
}
