package scenario

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rta"
	"repro/internal/sim"
)

// canonicalExcluded lists the Spec fields deliberately absent from the
// canonical form: pure labels, carrying no influence on the compiled
// mission, so two Specs differing only here must share cache entries.
var canonicalExcluded = map[string]bool{"Name": true, "Description": true}

// specFieldEdit is one Spec field's entry in
// TestCanonicalHandlesEverySpecField: edit changes the field of a valid
// spec; context, when set, is applied to both sides first, for a field that
// only some configurations read.
type specFieldEdit struct {
	context func(*Spec)
	edit    func(*Spec)
}

// TestCanonicalHandlesEverySpecField is the cache-poisoning guard: every
// field of Spec has exactly one edit below, and the fingerprint must follow
// it — an edit to an included field changes Fingerprint(1), an edit to a
// field in canonicalExcluded leaves it alone. A knob added to Spec without
// an entry fails here, as does one that Build reads but Canonical ignores,
// instead of silently aliasing cache entries for missions that differ in
// the new knob (the soter-serve result cache would then serve one mission's
// verdict for the other).
func TestCanonicalHandlesEverySpecField(t *testing.T) {
	edits := map[string]specFieldEdit{
		"Name":        {edit: func(s *Spec) { s.Name += "-renamed" }},
		"Description": {edit: func(s *Spec) { s.Description = "another label" }},
		"Workspace":   {edit: func(s *Spec) { s.Workspace = geom.CanyonWorkspace }},
		"Targets":     {edit: func(s *Spec) { s.Targets = append(slices.Clone(s.Targets), geom.V(25, 20, 3)) }},
		// Validate makes a fixed tour and RandomTargets exclusive, so this
		// edit drops the tour too.
		"RandomTargets":      {edit: func(s *Spec) { s.Targets, s.RandomTargets = nil, true }},
		"Start":              {edit: func(s *Spec) { s.Start = geom.V(5, 5, 2) }},
		"InitialBattery":     {edit: func(s *Spec) { s.InitialBattery = 0.5 }},
		"DrainMultiple":      {edit: func(s *Spec) { s.DrainMultiple = 3 }},
		"Protection":         {edit: func(s *Spec) { s.Protection = mission.ProtectSCOnly }},
		"AC":                 {edit: func(s *Spec) { s.AC = mission.ACLearned }},
		"LearnedBadFraction": {context: func(s *Spec) { s.AC = mission.ACLearned }, edit: func(s *Spec) { s.LearnedBadFraction = 0.3 }},
		"NoPlannerModule":    {edit: func(s *Spec) { s.NoPlannerModule = !s.NoPlannerModule }},
		"NoBatteryModule":    {edit: func(s *Spec) { s.NoBatteryModule = !s.NoBatteryModule }},
		"OneWaySwitching":    {edit: func(s *Spec) { s.OneWaySwitching = !s.OneWaySwitching }},
		"MotionDelta":        {edit: func(s *Spec) { s.MotionDelta = 50 * time.Millisecond }},
		"Hysteresis":         {edit: func(s *Spec) { s.Hysteresis = 3 }},
		"SwitchPolicy":       {edit: func(s *Spec) { s.SwitchPolicy = "sticky-sc" }},
		"PlanMargin":         {edit: func(s *Spec) { s.PlanMargin = 0.9 }},
		"Faults":             {edit: func(s *Spec) { s.Faults.Len += 100 * time.Millisecond }},
		"PlannerBug":         {edit: func(s *Spec) { s.PlannerBug = plan.BugStaleObstacles }},
		"PlannerBugRate":     {context: func(s *Spec) { s.PlannerBug = plan.BugSkipEdgeCheck }, edit: func(s *Spec) { s.PlannerBugRate = plan.DefaultBugRate / 2 }},
		"JitterProb":         {edit: func(s *Spec) { s.JitterProb = 0.1 }},
		"JitterSCOnly":       {context: func(s *Spec) { s.JitterProb = 0.1 }, edit: func(s *Spec) { s.JitterSCOnly = !s.JitterSCOnly }},
		"Duration":           {edit: func(s *Spec) { s.Duration += time.Second }},
	}
	typ := reflect.TypeOf(Spec{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if _, ok := edits[name]; !ok {
			t.Errorf("Spec field %q has no edit in TestCanonicalHandlesEverySpecField: add one, and include the field in Canonical() or list it in canonicalExcluded", name)
		}
	}
	for name := range canonicalExcluded {
		if !fields[name] {
			t.Errorf("canonicalExcluded lists %q but Spec has no such field — stale entry", name)
		}
	}

	fingerprint := func(s Spec) string {
		t.Helper()
		h, err := s.Fingerprint(1)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for name, e := range edits {
		if !fields[name] {
			t.Errorf("TestCanonicalHandlesEverySpecField edits %q but Spec has no such field — stale entry", name)
			continue
		}
		base := MustGet("surveillance-city")
		if e.context != nil {
			e.context(&base)
		}
		edited := base
		e.edit(&edited)
		changed := fingerprint(edited) != fingerprint(base)
		switch {
		case canonicalExcluded[name] && changed:
			t.Errorf("editing excluded Spec field %s changes the fingerprint: labels must share cache entries", name)
		case !canonicalExcluded[name] && !changed:
			t.Errorf("editing Spec field %s leaves the fingerprint unchanged: include it in Canonical() or list it in canonicalExcluded (two workloads differing only in %s would share a fingerprint)", name, name)
		}
	}
}

// TestFingerprintDistinguishesPolicy: two specs differing only in
// SwitchPolicy produce distinct fingerprints — policies never share cache
// entries — while every spelling of the same policy shares one.
func TestFingerprintDistinguishesPolicy(t *testing.T) {
	base := MustGet("surveillance-city")
	fp := func(policy string) string {
		t.Helper()
		s := base
		s.SwitchPolicy = policy
		h, err := s.Fingerprint(1)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if fp("") != fp("soter-fig9") {
		t.Error("\"\" and \"soter-fig9\" denote the same policy but fingerprint differently")
	}
	if fp("sticky-sc") != fp("sticky-sc:10") {
		t.Error("\"sticky-sc\" and its explicit default parameter fingerprint differently")
	}
	distinct := []string{"", "sticky-sc", "sticky-sc:25", "hysteresis", "always-ac", "always-sc"}
	seen := map[string]string{}
	for _, pol := range distinct {
		h := fp(pol)
		if prev, dup := seen[h]; dup {
			t.Errorf("fingerprint collision between policies %q and %q", pol, prev)
		}
		seen[h] = pol
	}
	if _, err := (Spec{Name: "x", Targets: base.Targets, Duration: time.Second, SwitchPolicy: "no-such"}).Fingerprint(1); err == nil {
		t.Error("unknown policy canonicalized without error")
	}
}

// recordRun builds the spec at the seed and replays it, returning the
// marshalled event stream (trajectory samples excluded to keep the
// comparison about decisions, not floats — though those are deterministic
// too) and the metrics.
func recordRun(t *testing.T, s Spec, seed int64) ([]byte, sim.Metrics) {
	t.Helper()
	rcfg, err := s.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	rcfg.Observers = append(rcfg.Observers, w)
	res, err := sim.Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Metrics
}

// TestDefaultPolicyGolden: a spec with SwitchPolicy unset and one naming
// soter-fig9 explicitly produce byte-identical event streams and metrics on
// a fixed scenario+seed — the acceptance golden pinning the redesign to the
// seed behaviour — while a spec differing only in policy produces a
// different stream.
func TestDefaultPolicyGolden(t *testing.T) {
	base := MustGet("surveillance-city")
	base.Duration = 15 * time.Second

	unset, unsetMetrics := recordRun(t, base, 3)

	explicit := base
	explicit.SwitchPolicy = "soter-fig9"
	named, namedMetrics := recordRun(t, explicit, 3)

	if !bytes.Equal(unset, named) {
		t.Fatal("explicit soter-fig9 event stream diverges from the default")
	}
	if !reflect.DeepEqual(unsetMetrics, namedMetrics) {
		t.Fatalf("explicit soter-fig9 metrics diverge: %+v vs %+v", unsetMetrics, namedMetrics)
	}
	if s := unsetMetrics.Modules["safe-motion-primitive"]; s.Disengagements == 0 {
		t.Fatal("golden run never switched; the comparison is vacuous")
	}

	sticky := base
	sticky.SwitchPolicy = "sticky-sc:40" // 4s dwell at Δ=100ms: visibly different switching
	stickyStream, stickyMetrics := recordRun(t, sticky, 3)
	if bytes.Equal(unset, stickyStream) {
		t.Error("sticky-sc:40 produced the identical event stream — the policy knob is not wired through Build")
	}
	if reflect.DeepEqual(unsetMetrics.Modules, stickyMetrics.Modules) {
		t.Error("sticky-sc:40 produced identical module stats — the policy knob is not wired through Build")
	}
}

// TestPolicyClampKeepsAlwaysACSafe: the adversarial always-ac policy on the
// default mission stays crash-free — safety is enforced by the module clamp,
// not by policy good behaviour — and the run records the clamp firing.
func TestPolicyClampKeepsAlwaysACSafe(t *testing.T) {
	s := MustGet("surveillance-city")
	s.Duration = 15 * time.Second
	s.SwitchPolicy = "always-ac"
	_, m := recordRun(t, s, 3)
	if m.Crashed {
		t.Fatalf("always-ac crashed at t=%v — the framework clamp failed", m.CrashTime)
	}
	stats := m.Modules["safe-motion-primitive"]
	if stats.Disengagements == 0 {
		t.Fatal("always-ac never disengaged; the clamp was never exercised")
	}
	if stats.Clamped != stats.Disengagements {
		t.Errorf("always-ac disengaged %d times but only %d were clamps — it cannot disengage voluntarily", stats.Disengagements, stats.Clamped)
	}
}

// TestSwitchReasonsInStream: the default policy's switches carry ttf-trip /
// recovery reasons end to end through the sim event stream.
func TestSwitchReasonsInStream(t *testing.T) {
	s := MustGet("surveillance-city")
	s.Duration = 15 * time.Second
	rcfg, err := s.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	rcfg.Observers = append(rcfg.Observers, rec)
	if _, err := sim.Run(rcfg); err != nil {
		t.Fatal(err)
	}
	saw := map[rta.SwitchReason]bool{}
	for _, e := range rec.Events() {
		if sw, ok := e.(obs.ModeSwitch); ok {
			saw[sw.Reason] = true
		}
	}
	if !saw[rta.ReasonTTFTrip] || !saw[rta.ReasonRecovery] {
		t.Errorf("expected both ttf-trip and recovery reasons in the stream, saw %v", saw)
	}
	if saw[rta.ReasonNone] {
		t.Error("a mode switch carried no reason")
	}
}
