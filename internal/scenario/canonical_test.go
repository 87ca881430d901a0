package scenario

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mission"
	"repro/internal/plan"
)

// TestCanonicalDeterministic: the canonical form is byte-identical across
// calls and across label-only differences, and every registered scenario has
// one (the registry stays cacheable end to end).
func TestCanonicalDeterministic(t *testing.T) {
	for _, s := range All() {
		a, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: canonical form not deterministic", s.Name)
		}
		renamed := s
		renamed.Name, renamed.Description = "other-label", "other description"
		c, err := renamed.Canonical()
		if err != nil {
			t.Fatalf("%s renamed: %v", s.Name, err)
		}
		if !bytes.Equal(a, c) {
			t.Errorf("%s: canonical form depends on the label", s.Name)
		}
	}
}

// explicitDefaults spells each "zero means default" knob with its default
// value. Each must fingerprint like the Spec that leaves the knob unset.
var explicitDefaults = map[string]func(*Spec){
	"initial-battery": func(s *Spec) { s.InitialBattery = 1 },
	"drain-multiple":  func(s *Spec) { s.DrainMultiple = 1 },
	"protection":      func(s *Spec) { s.Protection = mission.ProtectRTA },
	"ac":              func(s *Spec) { s.AC = mission.ACAggressive },
	"learned-bad":     func(s *Spec) { s.LearnedBadFraction = 0.12 },
	"motion-delta":    func(s *Spec) { s.MotionDelta = 100 * time.Millisecond },
	"hysteresis":      func(s *Spec) { s.Hysteresis = 2.0 },
	"switch-policy":   func(s *Spec) { s.SwitchPolicy = "soter-fig9" },
	"plan-margin":     func(s *Spec) { s.PlanMargin = 1.25 },
}

// TestCanonicalResolvesDefaults: a Spec that spells a default explicitly
// denotes the same mission as one leaving the knob unset, so the two must
// fingerprint identically — otherwise equivalent jobs would miss the result
// cache.
func TestCanonicalResolvesDefaults(t *testing.T) {
	base := MustGet("surveillance-city")
	want, err := base.Fingerprint(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, explicit := range explicitDefaults {
		got, err := base.With(Override{Apply: explicit}).Fingerprint(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("explicit default %s changed the fingerprint", name)
		}
	}
}

// TestCanonicalResolvesBugRate: a Spec fingerprints the bug rate that runs.
// A skip-edge-check Spec that leaves the rate unset runs the default rate, so
// it must fingerprint like the Spec that spells 0.3; the other bugs never
// read the rate, so any rate must fingerprint like rate 0. Each Spec also
// compiles to the stack that runs that rate.
func TestCanonicalResolvesBugRate(t *testing.T) {
	withBug := func(bug plan.Bug, rate float64) Spec {
		return MustGet("surveillance-city").With(Override{Apply: func(s *Spec) { s.PlannerBug, s.PlannerBugRate = bug, rate }})
	}
	for _, tc := range []struct {
		bug        plan.Bug
		rate, runs float64
	}{
		{plan.BugSkipEdgeCheck, 0, 0.3},
		{plan.BugStaleObstacles, 0.2, 0},
		{plan.BugStaleObstacles, 0.7, 0},
		{plan.BugUncheckedShortcut, 0.2, 0},
		{plan.BugUncheckedShortcut, 0.7, 0},
	} {
		got, err := withBug(tc.bug, tc.rate).Fingerprint(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := withBug(tc.bug, tc.runs).Fingerprint(1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v at rate %v fingerprints %s, at rate %v %s", tc.bug, tc.rate, got, tc.runs, want)
		}
		cfg, err := withBug(tc.bug, tc.rate).StackConfig(1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.PlannerBugRate != tc.runs {
			t.Errorf("%v at rate %v compiles to rate %v, want %v", tc.bug, tc.rate, cfg.PlannerBugRate, tc.runs)
		}
	}
}

// fingerprintGoldenFile pins the fingerprints of a fixed set of Specs: the
// result store answers a repeated cell by Spec.Fingerprint, so a change to
// how a Spec is canonicalized must not move any of them.
const fingerprintGoldenFile = "testdata/spec_fingerprints.golden"

// goldenPolicySpellings are the policy specs the golden crosses with every
// registry scenario, defaulted and explicit spellings alike.
var goldenPolicySpellings = []string{"", "soter-fig9", "sticky-sc", "sticky-sc:10", "hysteresis:5", "always-ac", "always-sc"}

// nonDefaultKnobs sets one knob of a Spec away from its default.
var nonDefaultKnobs = map[string]func(*Spec){
	"protection":      func(s *Spec) { s.Protection = mission.ProtectACOnly },
	"ac":              func(s *Spec) { s.AC = mission.ACLearned },
	"learned-bad":     func(s *Spec) { s.LearnedBadFraction = 0.3 },
	"motion-delta":    func(s *Spec) { s.MotionDelta = 50 * time.Millisecond },
	"hysteresis":      func(s *Spec) { s.Hysteresis = 3 },
	"plan-margin":     func(s *Spec) { s.PlanMargin = 0.9 },
	"drain-multiple":  func(s *Spec) { s.DrainMultiple = 2 },
	"initial-battery": func(s *Spec) { s.InitialBattery = 0.5 },
	"one-way":         func(s *Spec) { s.OneWaySwitching = true },
}

// specFingerprints lists "label seed fingerprint" for every registry
// scenario × goldenPolicySpellings × seeds 1–2, then for surveillance-city
// under each explicit default and each non-default knob at seed 1.
func specFingerprints(t *testing.T) string {
	var b strings.Builder
	line := func(label string, s Spec, seed int64) {
		fp, err := s.Fingerprint(seed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&b, "%s %d %s\n", label, seed, fp)
	}
	for _, spec := range All() {
		for _, pol := range goldenPolicySpellings {
			s := spec.With(Override{Apply: func(s *Spec) { s.SwitchPolicy = pol }})
			for seed := int64(1); seed <= 2; seed++ {
				line(fmt.Sprintf("%s policy=%q", spec.Name, pol), s, seed)
			}
		}
	}
	base := MustGet("surveillance-city")
	for _, set := range []struct {
		kind  string
		knobs map[string]func(*Spec)
	}{{"default", explicitDefaults}, {"knob", nonDefaultKnobs}} {
		for _, name := range slices.Sorted(maps.Keys(set.knobs)) {
			line(set.kind+"="+name, base.With(Override{Apply: set.knobs[name]}), 1)
		}
	}
	return b.String()
}

// TestSpecFingerprintGolden holds the fingerprints of specFingerprints
// byte-identical to the recorded ones.
func TestSpecFingerprintGolden(t *testing.T) {
	want, err := os.ReadFile(fingerprintGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := specFingerprints(t); got != string(want) {
		t.Fatalf("spec fingerprints changed.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestFingerprintSensitivity: the fingerprint separates what must be
// separated (different scenarios, seeds, overridden knobs) and identifies
// what must be identified (the same (Spec, seed) pair).
func TestFingerprintSensitivity(t *testing.T) {
	base := MustGet("surveillance-city")
	fp := func(s Spec, seed int64) string {
		t.Helper()
		h, err := s.Fingerprint(seed)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	same, again := fp(base, 1), fp(base, 1)
	if same != again {
		t.Fatalf("fingerprint not stable: %s vs %s", same, again)
	}
	seen := map[string]string{"base/seed-1": same}
	distinct := map[string]string{
		"seed-2":   fp(base, 2),
		"duration": fp(base.With(Override{Apply: func(s *Spec) { s.Duration = 42 * time.Second }}), 1),
		"jitter":   fp(base.With(Override{Apply: func(s *Spec) { s.JitterProb = 0.01 }}), 1),
		"policy":   fp(base.With(Override{Apply: func(s *Spec) { s.SwitchPolicy = "sticky-sc" }}), 1),
		"canyon":   fp(MustGet("canyon-corridor"), 1),
	}
	for name, h := range distinct {
		for prev, ph := range seen {
			if h == ph {
				t.Errorf("fingerprint collision: %s == %s (%s)", name, prev, h)
			}
		}
		seen[name] = h
	}
}
