package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plan"
)

// canonicalSpec is the serialization schema of Canonical: every field of a
// Spec that influences the compiled mission, in a fixed order, with the
// workspace factory resolved to its concrete geometry and every defaulted
// field resolved to its effective value. Name and Description are excluded
// deliberately — two Specs that differ only in labelling denote the same
// mission, and the result cache should treat them as one.
// TestCanonicalHandlesEverySpecField edits every Spec field and holds the
// fingerprint to that split.
type canonicalSpec struct {
	WorkspaceBounds    geom.AABB              `json:"workspace_bounds"`
	WorkspaceObstacles []geom.AABB            `json:"workspace_obstacles"`
	Targets            []geom.Vec3            `json:"targets,omitempty"`
	RandomTargets      bool                   `json:"random_targets,omitempty"`
	Start              geom.Vec3              `json:"start"`
	InitialBattery     float64                `json:"initial_battery"`
	DrainMultiple      float64                `json:"drain_multiple"`
	Protection         mission.ProtectionMode `json:"protection"`
	AC                 mission.ACKind         `json:"ac"`
	LearnedBadFraction float64                `json:"learned_bad_fraction"`
	NoPlannerModule    bool                   `json:"no_planner_module,omitempty"`
	NoBatteryModule    bool                   `json:"no_battery_module,omitempty"`
	OneWaySwitching    bool                   `json:"one_way_switching,omitempty"`
	MotionDeltaNS      time.Duration          `json:"motion_delta_ns"`
	Hysteresis         float64                `json:"hysteresis"`
	SwitchPolicy       string                 `json:"switch_policy"`
	PlanMargin         float64                `json:"plan_margin"`
	Faults             FaultProfile           `json:"faults"`
	PlannerBug         plan.Bug               `json:"planner_bug"`
	PlannerBugRate     float64                `json:"planner_bug_rate"`
	JitterProb         float64                `json:"jitter_prob"`
	JitterSCOnly       bool                   `json:"jitter_sc_only,omitempty"`
	DurationNS         time.Duration          `json:"duration_ns"`
}

// Canonical returns a deterministic serialization of the mission the Spec
// denotes: the same workload always yields byte-identical output, regardless
// of how the Spec was assembled (registry lookup, overrides, hand-written
// literal). It reads the resolved Spec that Build compiles — the workspace
// factory as concrete geometry, every "zero means default" knob as its
// effective value, the policy spec in canonical form — so a Spec spelling a
// default explicitly fingerprints like one leaving it unset, and "sticky-sc"
// shares an entry with "sticky-sc:10". That makes it a sound cache key for
// anything derived deterministically from (Spec, seed), the property the
// serving layer's result cache is built on.
func (s Spec) Canonical() ([]byte, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, err
	}
	cfg := r.stack
	out, err := json.Marshal(canonicalSpec{
		WorkspaceBounds:    cfg.Workspace.Bounds(),
		WorkspaceObstacles: cfg.Workspace.ObstaclesView(),
		Targets:            cfg.App.Points,
		RandomTargets:      cfg.App.Random,
		Start:              r.start,
		InitialBattery:     r.battery,
		DrainMultiple:      r.drain,
		Protection:         cfg.Protection,
		AC:                 cfg.AC,
		LearnedBadFraction: cfg.LearnedBadFraction,
		NoPlannerModule:    !cfg.WithPlannerModule,
		NoBatteryModule:    !cfg.WithBatteryModule,
		OneWaySwitching:    cfg.OneWaySwitching,
		MotionDeltaNS:      cfg.MotionDelta,
		Hysteresis:         cfg.Hysteresis,
		SwitchPolicy:       cfg.SwitchPolicy,
		PlanMargin:         cfg.PlanMargin,
		Faults:             s.Faults,
		PlannerBug:         cfg.PlannerBug,
		PlannerBugRate:     cfg.PlannerBugRate,
		JitterProb:         s.JitterProb,
		JitterSCOnly:       s.JitterSCOnly,
		DurationNS:         s.Duration,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: canonicalize: %w", s.Name, err)
	}
	return out, nil
}

// Fingerprint hashes the canonical form of (Spec, seed) into a short stable
// hex string. Runs are fully deterministic per (Spec, seed) — the property
// the paper's repeatable experiments rely on — so the fingerprint identifies
// a mission's results: equal fingerprints mean byte-identical metrics, which
// is what lets the serving layer answer repeated grid cells from cache
// instead of re-simulating them.
func (s Spec) Fingerprint(seed int64) (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return fingerprintOf(canon, seed), nil
}

// Fingerprints is the seed-sweep form of Fingerprint: one canonicalization,
// one hash per seed — what a serving-layer job with thousands of grid cells
// calls instead of re-canonicalizing the identical spec per cell.
func (s Spec) Fingerprints(seeds []int64) ([]string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(seeds))
	for i, seed := range seeds {
		out[i] = fingerprintOf(canon, seed)
	}
	return out, nil
}

// fingerprintOf hashes canonical spec bytes together with the seed.
func fingerprintOf(canon []byte, seed int64) string {
	h := sha256.New()
	h.Write(canon)
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seed))
	h.Write(sb[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}
