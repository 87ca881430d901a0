package scenario

import (
	"time"

	"repro/internal/geom"
	"repro/internal/plan"
)

// CornerTour returns the g1..g4 waypoint square of the corner-hazard
// workspace (Figure 5 right / Figure 12a). Exported because the unprotected
// Figure 5 experiment drives a bare controller around the same tour.
func CornerTour() []geom.Vec3 {
	return []geom.Vec3{
		geom.V(5, 5, 2), geom.V(25, 5, 2), geom.V(25, 25, 2), geom.V(5, 25, 2),
	}
}

// The built-in catalog. Each entry is the paper's workload or a stress
// variant of it; experiments and CLIs resolve these by name and express
// their configurations as overrides of them.
func init() {
	MustRegister(Spec{
		Name: "surveillance-city",
		Description: "The paper's case study: RTA-protected patrol of the city workspace " +
			"with periodic full-thrust AC faults (Figure 12b).",
		Targets: []geom.Vec3{
			geom.V(3, 3, 2), geom.V(46, 3, 2.5), geom.V(46, 46, 2),
			geom.V(3, 46, 2.5), geom.V(25, 33, 3),
		},
		Faults: FaultProfile{
			First: 9 * time.Second,
			Every: 13 * time.Second,
			Len:   1200 * time.Millisecond,
			Dir:   geom.V(1, 0.4, 0),
		},
		Duration: 2 * time.Minute,
	})

	MustRegister(Spec{
		Name: "canyon-corridor",
		Description: "Shuttle between two staging areas through a 5 m canyon; the tight " +
			"φsafer band in the passage stresses the switching logic.",
		Workspace: geom.CanyonWorkspace,
		Targets:   []geom.Vec3{geom.V(5, 15, 2), geom.V(55, 15, 2)},
		// Plan close to the walls: the default margin+0.8 slack would route
		// around the canyon entirely (or fail), defeating the scenario.
		PlanMargin: 0.55,
		Faults: FaultProfile{
			First: 10 * time.Second,
			Every: 15 * time.Second,
			Len:   time.Second,
			Dir:   geom.V(0, 1, 0), // push toward the canyon wall
		},
		Duration: 2 * time.Minute,
	})

	MustRegister(Spec{
		Name: "random-endurance",
		Description: "Section V-D style endurance segment: randomly drawn surveillance " +
			"targets with one sporadic AC failure per segment.",
		RandomTargets: true,
		Faults: FaultProfile{
			First:      60 * time.Second,
			Spread:     45 * time.Second,
			Len:        1100 * time.Millisecond,
			Dir:        geom.V(1, 0.5, 0),
			MaxWindows: 1,
		},
		Duration: 5 * time.Minute,
	})

	MustRegister(Spec{
		Name: "battery-stress",
		Description: "Figure 12c: 30x battery drain from 92% charge; the battery DM must " +
			"abort the mission and land with charge to spare.",
		Targets: []geom.Vec3{
			geom.V(3, 3, 2), geom.V(46, 3, 2), geom.V(46, 46, 2), geom.V(3, 46, 2),
		},
		InitialBattery: 0.92,
		DrainMultiple:  30,
		Duration:       10 * time.Minute,
	})

	MustRegister(Spec{
		Name: "planner-bug-gauntlet",
		Description: "Section V-C: the RRT* AC planner skips edge checks on 30% of draws " +
			"while plans hug obstacles; the planner RTA must keep φplan.",
		RandomTargets:  true,
		PlannerBug:     plan.BugSkipEdgeCheck,
		PlannerBugRate: plan.DefaultBugRate,
		// Plan at the tight safety margin so defective plans actually reach
		// the DM instead of being masked by planner slack.
		PlanMargin: 0.5,
		Duration:   time.Minute,
	})

	MustRegister(Spec{
		Name: "jitter-storm",
		Description: "Best-effort scheduling stress: frequent SC/DM outage bursts on top " +
			"of periodic AC faults (the Section V-D crash mode, amplified).",
		RandomTargets: true,
		Faults: FaultProfile{
			First: 15 * time.Second,
			Every: 20 * time.Second,
			Len:   1200 * time.Millisecond,
			Dir:   geom.V(1, 0.3, 0),
		},
		JitterProb:   0.02,
		JitterSCOnly: true,
		Duration:     3 * time.Minute,
	})

	MustRegister(Spec{
		Name: "corner-hazard-tour",
		Description: "Figure 12a: the g1..g4 tour with hazard blocks past every corner; " +
			"motion layer only, waypoints deliberately near the hazards.",
		Workspace:       geom.CornerHazardWorkspace,
		Targets:         CornerTour(),
		Start:           geom.V(5, 25, 2),
		NoPlannerModule: true,
		NoBatteryModule: true,
		PlanMargin:      0.5,
		Duration:        10 * time.Minute,
	})
}
