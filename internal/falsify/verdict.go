package falsify

import "repro/internal/sim"

// Verdict is the summary of one candidate execution — the facts the
// severity objective and the counterexample classification are computed from.
// It is JSON-stable: corpus entries pin it so a replay can be compared
// against the verdict the counterexample was filed with.
type Verdict struct {
	// Crashed marks an obstacle or ground impact; CrashTime is its instant.
	Crashed   bool  `json:"crashed,omitempty"`
	CrashTime int64 `json:"crash_time_ns,omitempty"`
	// Collisions counts distinct collision episodes.
	Collisions int `json:"collisions,omitempty"`
	// InvariantViolations counts φInv monitor failures (the monitor runs in
	// every simulation).
	InvariantViolations int `json:"invariant_violations,omitempty"`
	// Clamped counts framework clamps — the module overriding a policy's AC
	// proposal in a state where ttf2Δ fails. A storm of them marks a
	// configuration surviving on the clamp alone.
	Clamped int `json:"clamped,omitempty"`
	// Disengagements counts AC→SC switches.
	Disengagements int `json:"disengagements,omitempty"`
	// MinClearance is the smallest obstacle clearance observed along the
	// trajectory (0 when no sample was seen) — the near-miss distance.
	MinClearance float64 `json:"min_clearance,omitempty"`
	// Err carries a run error that kept the candidate from being scored
	// ("mission build failed", ...); such runs never qualify.
	Err string `json:"err,omitempty"`
}

// Counterexample categories.
const (
	CategoryCrash      = "crash"
	CategoryInvariant  = "invariant"
	CategoryClampStorm = "clamp-storm"
)

// Category classifies the verdict against the campaign's clamp-storm
// threshold: "crash", "invariant", "clamp-storm", or "" when the run is not
// a counterexample. Categories are ordered by gravity — a crashing run that
// also violated φInv files as a crash.
func (v Verdict) Category(clampStorm int) string {
	switch {
	case v.Err != "":
		return ""
	case v.Crashed:
		return CategoryCrash
	case v.InvariantViolations > 0:
		return CategoryInvariant
	case clampStorm > 0 && v.Clamped >= clampStorm:
		return CategoryClampStorm
	default:
		return ""
	}
}

// Severity weights. Crashes dominate invariant violations dominate clamp
// storms; the clamp count and the near-miss term are the continuous slopes
// the guided strategy hill-climbs on before any discrete violation exists.
const (
	sevCrash     = 1000.0
	sevCollision = 10.0
	sevInvariant = 100.0
	sevClamp     = 1.0
	sevNearMiss  = 50.0
)

// severity scores a verdict for ranking and for the guided strategy's
// objective. margin is the workspace safety margin near-misses are measured
// against (the mission stack's ttf margin). Deterministic: same verdict and
// margin, same score.
func severity(v Verdict, margin float64) float64 {
	if v.Err != "" {
		return 0
	}
	s := 0.0
	if v.Crashed {
		s += sevCrash
	}
	s += sevCollision * float64(v.Collisions)
	s += sevInvariant * float64(v.InvariantViolations)
	s += sevClamp * float64(v.Clamped)
	if margin > 0 && v.MinClearance > 0 && v.MinClearance < margin {
		s += sevNearMiss * (margin - v.MinClearance) / margin
	}
	return s
}

// verdictOf condenses a run's metrics into the falsification verdict: every
// fact the severity objective and the counterexample classification need is
// already aggregated by the run's obs.MetricsSink (clamps and disengagements
// summed over modules; MinClearance is the near-miss distance standing in for
// the minimum ttf2Δ margin, which the event stream does not carry).
func verdictOf(m sim.Metrics) Verdict {
	v := Verdict{
		Crashed:             m.Crashed,
		CrashTime:           int64(m.CrashTime),
		Collisions:          m.Collisions,
		InvariantViolations: m.InvariantViolations,
		Disengagements:      m.TotalDisengagements(),
		MinClearance:        m.MinClearance,
	}
	for _, s := range m.Modules {
		v.Clamped += s.Clamped
	}
	return v
}
