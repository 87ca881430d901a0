package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
)

// short returns the registered spec scaled down to a quick smoke mission.
func short(t *testing.T, name string, d time.Duration) Spec {
	t.Helper()
	spec, ok := Get(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec.Duration = d
	return spec
}

// TestCatalog checks the registry invariants the CLIs rely on: at least six
// scenarios, every one of them valid.
func TestCatalog(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registered scenarios = %d (%v), want >= 6", len(names), names)
	}
	for _, spec := range All() {
		if err := spec.Validate(); err != nil {
			t.Errorf("registered scenario %q does not validate: %v", spec.Name, err)
		}
		if spec.Description == "" {
			t.Errorf("registered scenario %q has no description", spec.Name)
		}
	}
}

// TestCatalogBuildsAndRuns is the registry smoke test: every registered
// scenario validates, builds, and completes a short mission without error.
func TestCatalogBuildsAndRuns(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := short(t, name, 5*time.Second)
			rcfg, err := spec.Build(11)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			out, err := sim.Run(rcfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if out.Metrics.Duration <= 0 {
				t.Error("mission simulated no time")
			}
		})
	}
}

// TestCatalogDeterminism: the same (Spec, seed) pair must always denote the
// same mission — identical Metrics run to run.
func TestCatalogDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := short(t, name, 4*time.Second)
			var runs [2]sim.Metrics
			for i := range runs {
				rcfg, err := spec.Build(29)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				out, err := sim.Run(rcfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				runs[i] = out.Metrics
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("metrics differ across identical runs:\n  first:  %+v\n  second: %+v", runs[0], runs[1])
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	valid := Spec{
		Name:     "valid",
		Targets:  []geom.Vec3{geom.V(3, 3, 2)},
		Duration: time.Second,
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"no duration", func(s *Spec) { s.Duration = 0 }},
		{"no targets", func(s *Spec) { s.Targets = nil }},
		{"targets and random", func(s *Spec) { s.RandomTargets = true }},
		{"battery > 1", func(s *Spec) { s.InitialBattery = 1.5 }},
		{"negative drain", func(s *Spec) { s.DrainMultiple = -1 }},
		{"jitter > 1", func(s *Spec) { s.JitterProb = 2 }},
		{"bug rate > 1", func(s *Spec) { s.PlannerBugRate = 1.5 }},
		{"negative learned bad fraction", func(s *Spec) { s.LearnedBadFraction = -0.1 }},
		{"learned bad fraction > 1", func(s *Spec) { s.LearnedBadFraction = 1.5 }},
		{"negative fault start", func(s *Spec) { s.Faults = FaultProfile{First: -time.Second, Len: time.Second} }},
		{"unknown policy", func(s *Spec) { s.SwitchPolicy = "no-such-policy" }},
		{"bad policy param", func(s *Spec) { s.SwitchPolicy = "sticky-sc:0" }},
		{"one-way with non-default policy", func(s *Spec) { s.OneWaySwitching, s.SwitchPolicy = true, "always-ac" }},
	}
	for _, tc := range cases {
		spec := valid
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken spec", tc.name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	spec := Spec{
		Name:     "register-dup-probe",
		Targets:  []geom.Vec3{geom.V(3, 3, 2)},
		Duration: time.Second,
	}
	// Keep the probe out of the process-global registry once this test is
	// done, so the catalog tests stay order-independent and -count=N works.
	t.Cleanup(func() {
		registry.Lock()
		delete(registry.specs, spec.Name)
		registry.Unlock()
	})
	if err := Register(spec); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := Register(spec); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register(Spec{Name: "invalid-probe"}); err == nil {
		t.Error("Register accepted an invalid spec")
	}
}

func TestOverride(t *testing.T) {
	base := MustGet("surveillance-city")
	ov := base.With(Override{Name: "no-faults", Apply: func(s *Spec) {
		s.Faults = FaultProfile{}
		s.Targets[0] = geom.V(9, 9, 9)
	}})
	if ov.Name != "surveillance-city+no-faults" {
		t.Errorf("override name = %q", ov.Name)
	}
	if ov.Faults.Active() {
		t.Error("override did not clear the fault profile")
	}
	if base.Targets[0] == geom.V(9, 9, 9) {
		t.Error("With leaked target mutation into the base spec")
	}
	if !MustGet("surveillance-city").Faults.Active() {
		t.Error("registry spec mutated by override")
	}
}

// TestFaultProfileWindows pins the expansion semantics the experiment
// rewrites depend on.
func TestFaultProfileWindows(t *testing.T) {
	p := FaultProfile{First: 9 * time.Second, Every: 13 * time.Second, Len: 1200 * time.Millisecond, Dir: geom.V(1, 0, 0)}
	ws := p.windows(1, 45*time.Second)
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3 (9s, 22s, 35s)", len(ws))
	}
	if ws[1].Start != 22*time.Second || ws[1].End != 22*time.Second+1200*time.Millisecond {
		t.Errorf("second window = [%v, %v]", ws[1].Start, ws[1].End)
	}

	single := FaultProfile{First: 60 * time.Second, Spread: 45 * time.Second, Len: time.Second, MaxWindows: 1}
	w := single.windows(13, 5*time.Minute)
	if len(w) != 1 {
		t.Fatalf("single-window profile expanded to %d windows", len(w))
	}
	if want := (60 + 13%45) * time.Second; w[0].Start != want {
		t.Errorf("spread window start = %v, want %v", w[0].Start, want)
	}
	if got := single.windows(-13, 5*time.Minute); got[0].Start < 60*time.Second {
		t.Errorf("negative seed produced start %v before First", got[0].Start)
	}

	if (FaultProfile{}).windows(1, time.Minute) != nil {
		t.Error("inactive profile produced windows")
	}
	capped := FaultProfile{First: 0, Every: time.Second, Len: 100 * time.Millisecond, MaxWindows: 6}
	if got := capped.windows(1, time.Minute); len(got) != 6 {
		t.Errorf("MaxWindows ignored: %d windows", len(got))
	}
}
