package falsify

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/pubsub"
	"repro/internal/runtime"
	"repro/internal/scenario"
)

// The schedule strategy wraps internal/explore — the seed codebase's
// bounded-asynchrony systematic-testing engine — as one falsification
// strategy: instead of mutating scenario parameters it enumerates (or, with
// a parameter, randomly samples) node-firing interleavings of the *base*
// configuration, hunting for schedules under which φInv fails or the drone
// crashes. Each explored schedule costs one budget unit; counterexamples
// carry the choice vector that replays the exact interleaving.

// ScheduleReport is the engine-facing account of an explore run: schedule
// count plus violations already classified into verdicts.
type ScheduleReport struct {
	// Schedules is the number of interleavings executed.
	Schedules int
	// Exhausted reports that the bounded schedule tree was fully visited
	// before the budget ran out.
	Exhausted bool
	// Violations lists the falsifying interleavings.
	Violations []ScheduleViolation
}

// ScheduleViolation is one falsifying interleaving.
type ScheduleViolation struct {
	// Choices is the full choice vector; replaying it reproduces the
	// schedule exactly (explore.ReplaySchedule).
	Choices []int
	// Seed is the random-interleaving seed it was sampled from (provenance;
	// zero in exhaustive mode).
	Seed int64
	// Verdict classifies the violation (crash vs invariant).
	Verdict Verdict
}

// scheduleStrategy is registered as "schedule" (exhaustive bounded-asynchrony
// DFS) / "schedule:N" (N random interleaving seeds).
type scheduleStrategy struct{ seeds int }

func (s scheduleStrategy) Name() string {
	if s.seeds > 0 {
		return fmt.Sprintf("schedule:%d", s.seeds)
	}
	return "schedule"
}

func (s scheduleStrategy) Search(ctx context.Context, e *Engine) error {
	spec := e.Base()
	ecfg := explore.Config{
		Build:        scheduleInstanceBuilder(spec, e.CampaignSeed()),
		Horizon:      spec.Duration,
		MaxSchedules: e.Remaining(),
	}
	for i := 0; i < s.seeds; i++ {
		ecfg.Seeds = append(ecfg.Seeds, e.CampaignSeed()+int64(i))
	}
	rep, err := explore.Run(ctx, ecfg)
	if rep != nil {
		e.ReportSchedules(convertExploreReport(rep))
	}
	// Exhaustive mode may visit the whole bounded tree below budget; that
	// ends the search (there is nothing left to explore), not an error.
	return err
}

// convertExploreReport classifies explore violations into verdicts: an
// executor φInv abort files as an invariant violation, anything else is the
// crash property tripping.
func convertExploreReport(rep *explore.Report) *ScheduleReport {
	out := &ScheduleReport{Schedules: rep.Schedules, Exhausted: rep.Exhausted}
	for _, v := range rep.Violations {
		var verdict Verdict
		var iv *runtime.InvariantViolationError
		if errors.As(v.Err, &iv) {
			verdict.InvariantViolations = 1
		} else {
			verdict.Crashed = true
			verdict.Collisions = 1
			verdict.CrashTime = int64(v.Time)
		}
		out.Violations = append(out.Violations, ScheduleViolation{
			Choices: v.Choices,
			Seed:    v.Seed,
			Verdict: verdict,
		})
	}
	return out
}

// scheduleInstanceBuilder compiles a scenario Spec into the explore backend's
// per-schedule instance factory: a fresh mission stack, a plant-in-the-loop
// environment and the no-crash property. This is what lets the systematic
// tester run *any* registered scenario, where the seed engine drove one
// hand-built system. Corpus replay of schedule counterexamples uses it too.
func scheduleInstanceBuilder(spec scenario.Spec, seed int64) explore.Builder {
	return func() (*explore.Instance, error) {
		cfg, err := spec.StackConfig(seed)
		if err != nil {
			return nil, err
		}
		st, err := mission.Build(cfg)
		if err != nil {
			return nil, err
		}
		drone, err := plant.NewDrone(cfg.PlantParams, seed)
		if err != nil {
			return nil, err
		}
		ws := st.Config.Workspace
		battery := spec.InitialBattery
		if battery == 0 {
			battery = 1
		}
		state := plant.State{Pos: spec.StartPos(), Battery: battery}
		env := runtime.EnvironmentFunc(func(prev, now time.Duration, topics *pubsub.Store) error {
			for t := prev; t < now; {
				dt := 5 * time.Millisecond
				if t+dt > now {
					dt = now - t
				}
				cmd := geom.Vec3{}
				if raw, err := topics.Get(mission.TopicCmd); err == nil && raw != nil {
					if v, ok := raw.(geom.Vec3); ok {
						cmd = v
					}
				}
				state = drone.Step(state, cmd, dt)
				t += dt
			}
			return topics.Set(mission.TopicDroneState, state)
		})
		property := func(exec *runtime.Executor) error {
			if plant.Crashed(state, ws) {
				return fmt.Errorf("crash at t=%v pos=%v", exec.Now(), state.Pos)
			}
			return nil
		}
		return &explore.Instance{
			System:    st.System,
			Env:       env,
			EnvTopics: []pubsub.Topic{{Name: mission.TopicDroneState, Default: state}},
			Property:  property,
		}, nil
	}
}
