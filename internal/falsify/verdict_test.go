package falsify

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rta"
)

func TestVerdictCategory(t *testing.T) {
	tests := []struct {
		name       string
		v          Verdict
		clampStorm int
		want       string
	}{
		{"clean", Verdict{}, 12, ""},
		{"crash", Verdict{Crashed: true}, 12, CategoryCrash},
		{"invariant", Verdict{InvariantViolations: 2}, 12, CategoryInvariant},
		{"clamp storm", Verdict{Clamped: 12}, 12, CategoryClampStorm},
		{"below storm threshold", Verdict{Clamped: 11}, 12, ""},
		{"storm disabled", Verdict{Clamped: 100}, 0, ""},
		// Gravity ordering: a crashing run that also violated φInv files as a
		// crash, and an invariant violation outranks any clamp count.
		{"crash beats invariant", Verdict{Crashed: true, InvariantViolations: 3}, 12, CategoryCrash},
		{"invariant beats storm", Verdict{InvariantViolations: 1, Clamped: 50}, 12, CategoryInvariant},
		// Errored runs never qualify, whatever else they observed.
		{"errored", Verdict{Crashed: true, Err: "build failed"}, 12, ""},
	}
	for _, tt := range tests {
		if got := tt.v.Category(tt.clampStorm); got != tt.want {
			t.Errorf("%s: Category(%d) = %q, want %q", tt.name, tt.clampStorm, got, tt.want)
		}
	}
}

func TestSeverity(t *testing.T) {
	if got := severity(Verdict{}, 1); got != 0 {
		t.Errorf("clean verdict severity = %v", got)
	}
	if got := severity(Verdict{Crashed: true, Err: "x"}, 1); got != 0 {
		t.Errorf("errored verdict severity = %v, want 0", got)
	}
	crash := severity(Verdict{Crashed: true, Collisions: 1}, 1)
	inv := severity(Verdict{InvariantViolations: 1}, 1)
	storm := severity(Verdict{Clamped: 20}, 1)
	if !(crash > inv && inv > storm) {
		t.Errorf("severity ordering violated: crash=%v invariant=%v storm=%v", crash, inv, storm)
	}
	// The near-miss term slopes continuously toward zero clearance — the
	// gradient the guided strategy climbs before any discrete violation.
	close := severity(Verdict{MinClearance: 0.1}, 1.0)
	far := severity(Verdict{MinClearance: 0.9}, 1.0)
	if !(close > far && far > 0) {
		t.Errorf("near-miss slope: clearance 0.1 → %v, 0.9 → %v", close, far)
	}
	if got := severity(Verdict{MinClearance: 1.5}, 1.0); got != 0 {
		t.Errorf("clearance beyond margin scored %v", got)
	}
	if got := severity(Verdict{MinClearance: 0.1}, 0); got != 0 {
		t.Errorf("zero margin scored %v", got)
	}
}

// TestOracleAggregation: a candidate's verdict is derived from the run's
// obs.MetricsSink aggregate. A clamp is an SC switch with the clamped reason;
// a coordinated disengagement is an SC switch for any other reason; AC
// re-engagements count as neither; the crash time is the first collision's.
func TestOracleAggregation(t *testing.T) {
	sink := obs.NewMetricsSink(geom.CityWorkspace())
	sink.OnEvent(obs.RunStart{Modules: []string{"motion", "battery"}})
	sink.OnEvent(obs.ModeSwitch{T: 10 * time.Millisecond, Module: "motion", From: rta.ModeAC, To: rta.ModeSC, Reason: rta.ReasonClamped})
	sink.OnEvent(obs.ModeSwitch{T: 20 * time.Millisecond, Module: "battery", From: rta.ModeAC, To: rta.ModeSC, Reason: rta.ReasonTTFTrip})
	sink.OnEvent(obs.ModeSwitch{T: 30 * time.Millisecond, Module: "motion", From: rta.ModeSC, To: rta.ModeAC, Reason: rta.ReasonRecovery})
	sink.OnEvent(obs.ModeSwitch{T: 35 * time.Millisecond, Module: "battery", From: rta.ModeAC, To: rta.ModeSC, Reason: rta.ReasonClamped})
	sink.OnEvent(obs.InvariantViolation{T: 40 * time.Millisecond, Module: "motion", Mode: rta.ModeSC})
	sink.OnEvent(obs.Crash{T: 50 * time.Millisecond, Pos: geom.V(1, 1, 0)})
	sink.OnEvent(obs.Crash{T: 60 * time.Millisecond, Pos: geom.V(1, 1, 0)})

	v := verdictOf(sink.Metrics())
	if v.Clamped != 2 || v.Disengagements != 3 {
		t.Errorf("clamped=%d disengagements=%d, want 2, 3 (summed over modules)", v.Clamped, v.Disengagements)
	}
	if v.InvariantViolations != 1 {
		t.Errorf("invariant violations = %d", v.InvariantViolations)
	}
	if !v.Crashed || v.CrashTime != int64(50*time.Millisecond) || v.Collisions != 2 {
		t.Errorf("crash accounting: %+v", v)
	}
}

// TestOracleMinClearance: the verdict's near-miss distance is the sink's
// minimum obstacle clearance over airborne samples.
func TestOracleMinClearance(t *testing.T) {
	ws := geom.CityWorkspace()
	sink := obs.NewMetricsSink(ws)
	a := geom.V(5, 5, 2)
	b := geom.V(25, 25, 2)
	ca, cb := ws.Clearance(a), ws.Clearance(b)
	sink.OnTrajectorySample(obs.TrajectorySample{T: 0, Pos: a})
	sink.OnTrajectorySample(obs.TrajectorySample{T: time.Millisecond, Pos: b})
	// Landed samples are ignored: ground contact at the pad is not a near-miss.
	sink.OnTrajectorySample(obs.TrajectorySample{T: 2 * time.Millisecond, Pos: geom.V(0, 0, 0), Landed: true})
	if got, want := verdictOf(sink.Metrics()).MinClearance, min(ca, cb); got != want {
		t.Errorf("MinClearance = %v, want %v (a=%v b=%v)", got, want, ca, cb)
	}

	// A nil workspace disables the near-miss channel entirely.
	blind := obs.NewMetricsSink(nil)
	blind.OnTrajectorySample(obs.TrajectorySample{Pos: a})
	if got := verdictOf(blind.Metrics()).MinClearance; got != 0 {
		t.Errorf("nil-workspace sink measured clearance %v", got)
	}
}
