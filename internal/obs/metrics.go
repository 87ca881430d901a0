package obs

import (
	"maps"
	"time"

	"repro/internal/geom"
	"repro/internal/rta"
)

// ModuleStats aggregates per-module switching statistics.
type ModuleStats struct {
	// Disengagements counts AC→SC switches (the SC "taking over").
	Disengagements int
	// Reengagements counts SC→AC switches (performance restored).
	Reengagements int
	// Clamped counts the disengagements forced by the framework clamp — the
	// module overriding a switching policy's AC proposal in a state where
	// ttf2Δ fails. Zero for the default Figure 9 policy on well-formed
	// modules, whose (P3) obligation makes φsafer states survive 2Δ (so the
	// recovery never proposes AC against a failing ttf2Δ); ad-hoc predicates
	// without that coupling can see fig9 recoveries clamped too.
	Clamped int
	// ACTime and SCTime accumulate wall-clock time spent in each mode.
	ACTime, SCTime time.Duration
}

// ACFraction returns the fraction of time the module ran its AC.
func (m ModuleStats) ACFraction() float64 {
	total := m.ACTime + m.SCTime
	if total == 0 {
		return 0
	}
	return float64(m.ACTime) / float64(total)
}

// Metrics summarises one simulation run — the numbers the paper's evaluation
// reports. It is produced by aggregating a run's event stream through a
// MetricsSink (internal/sim re-exports it as sim.Metrics).
type Metrics struct {
	Duration      time.Duration
	DistanceFlown float64
	Crashed       bool
	CrashTime     time.Duration
	CrashPos      geom.Vec3
	Landed        bool
	LandTime      time.Duration
	MinClearance  float64
	// Collisions counts distinct collision episodes (entries into an
	// obstacle or the ground); with KeepFlyingAfterCrash the run continues
	// through them, which is how the unprotected baselines are scored.
	Collisions     int
	TargetsVisited int
	BatteryAtEnd   float64
	// Modules maps module name to its switching statistics.
	Modules map[string]ModuleStats
	// DroppedFirings counts node firings skipped by scheduler jitter.
	DroppedFirings int
	// InvariantViolations counts φInv monitor failures: DM steps after which
	// φsafe failed. The monitor runs in every run, so 0 is a measurement.
	InvariantViolations int
}

// TotalDisengagements sums disengagements across modules.
func (m Metrics) TotalDisengagements() int {
	n := 0
	for _, s := range m.Modules {
		n += s.Disengagements
	}
	return n
}

// MetricsSink aggregates a run's event stream into Metrics. It subscribes
// only to the kinds it needs; in particular it consumes every
// TrajectorySample (distance flown, minimum obstacle clearance) and every
// NodeFired (dropped-firing accounting), so it reproduces exactly what the
// simulator's bespoke callbacks used to compute — same accumulation order,
// bit-identical floats. Both high-volume kinds have typed, unboxed entry
// points (TrajectoryObserver, NodeFiredObserver). A sink observes one run;
// it is not safe for concurrent use.
type MetricsSink struct {
	ws *geom.Workspace

	m       Metrics
	lastPos geom.Vec3
	havePos bool
	// haveClear marks MinClearance as set: a genuine zero (a sample inside
	// an obstacle) must not read as "unset". clearPos/clearAt are the last
	// exactly evaluated sample and its clearance, the anchor of the
	// Lipschitz skip in OnTrajectorySample.
	haveClear bool
	clearPos  geom.Vec3
	clearAt   float64

	modeSince map[string]time.Duration
	modeNow   map[string]rta.Mode
	ended     bool
}

// NewMetricsSink builds a sink; ws is the workspace clearance is measured
// against (nil disables clearance tracking).
func NewMetricsSink(ws *geom.Workspace) *MetricsSink {
	return &MetricsSink{
		ws:        ws,
		m:         Metrics{Modules: make(map[string]ModuleStats)},
		modeSince: make(map[string]time.Duration),
		modeNow:   make(map[string]rta.Mode),
	}
}

// Interests implements Interested.
func (s *MetricsSink) Interests() KindSet {
	return Kinds(KindRunStart, KindRunEnd, KindNodeFired, KindModeSwitch,
		KindInvariantViolation, KindTrajectorySample, KindCrash, KindLanded)
}

// OnEvent implements Observer.
func (s *MetricsSink) OnEvent(e Event) {
	switch ev := e.(type) {
	case RunStart:
		for _, name := range ev.Modules {
			s.modeSince[name] = ev.T
			s.modeNow[name] = rta.ModeSC
		}
	case NodeFired:
		s.OnNodeFired(ev)
	case ModeSwitch:
		stats := s.m.Modules[ev.Module]
		if ev.To == rta.ModeSC {
			stats.Disengagements++
			if ev.Reason == rta.ReasonClamped {
				stats.Clamped++
			}
		} else {
			stats.Reengagements++
		}
		s.m.Modules[ev.Module] = stats
		s.accountMode(ev.Module, s.modeSince[ev.Module], ev.T, ev.From)
		s.modeSince[ev.Module] = ev.T
		s.modeNow[ev.Module] = ev.To
	case InvariantViolation:
		s.m.InvariantViolations++
	case TrajectorySample:
		s.OnTrajectorySample(ev)
	case Crash:
		s.m.Collisions++
		if !s.m.Crashed {
			s.m.Crashed = true
			s.m.CrashTime = ev.T
			s.m.CrashPos = ev.Pos
		}
	case Landed:
		if !s.m.Landed {
			s.m.Landed = true
			s.m.LandTime = ev.T
		}
	case RunEnd:
		s.m.Duration = ev.T
		s.m.BatteryAtEnd = ev.Battery
		s.m.TargetsVisited = ev.TargetsVisited
		for name, since := range s.modeSince {
			s.accountMode(name, since, ev.T, s.modeNow[name])
		}
		s.ended = true
	}
}

// OnNodeFired implements NodeFiredObserver — the unboxed entry point for
// the per-firing stream. OnEvent routes here, so either path yields
// identical metrics.
func (s *MetricsSink) OnNodeFired(ev NodeFired) {
	if ev.Dropped {
		s.m.DroppedFirings++
	}
}

// OnTrajectorySample implements TrajectoryObserver — the unboxed entry point
// for the per-sub-step sample stream. OnEvent routes here, so either path
// yields identical metrics.
func (s *MetricsSink) OnTrajectorySample(ev TrajectorySample) {
	if s.havePos {
		s.m.DistanceFlown += ev.Pos.Dist(s.lastPos)
	}
	s.lastPos = ev.Pos
	s.havePos = true
	if s.ws == nil || ev.Landed {
		return
	}
	// Clearance is 1-Lipschitz, so it is at least clearAt − |pos − clearPos|.
	// When that bound clears the minimum by more than the rounding slack,
	// the exact value cannot lower the minimum and the obstacle scan is
	// skipped; MinClearance stays bit-identical to scanning every sample.
	if s.haveClear {
		if lo := s.m.MinClearance; s.clearAt-ev.Pos.Dist(s.clearPos) > lo+1e-9*(1+lo) {
			return
		}
	}
	c := s.ws.Clearance(ev.Pos)
	s.clearPos, s.clearAt = ev.Pos, c
	if !s.haveClear || c < s.m.MinClearance {
		s.m.MinClearance = c
		s.haveClear = true
	}
}

// accountMode charges [from, to) to the module's time-in-mode counters.
func (s *MetricsSink) accountMode(module string, from, to time.Duration, mode rta.Mode) {
	if to <= from {
		return
	}
	stats := s.m.Modules[module]
	if mode == rta.ModeAC {
		stats.ACTime += to - from
	} else {
		stats.SCTime += to - from
	}
	s.m.Modules[module] = stats
}

// Metrics returns the aggregated metrics. After RunEnd it is the run's final
// verdict; before (e.g. a run cancelled so abruptly no RunEnd was emitted)
// it is the consistent partial aggregate of the events seen so far.
func (s *MetricsSink) Metrics() Metrics {
	out := s.m
	out.Modules = maps.Clone(s.m.Modules)
	return out
}
