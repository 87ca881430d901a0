package rta

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pubsub"
)

// policyModule builds a module whose predicates read the pointed-at booleans,
// so a test can script the (ttf2Δ, φsafer) observations step by step.
func policyModule(t *testing.T, policy Policy, ttf, safer *bool) *Module {
	t.Helper()
	d := validDecl(t)
	d.Policy = policy
	d.TTF2Delta = func(pubsub.Valuation) bool { return *ttf }
	d.InSafer = func(pubsub.Valuation) bool { return *safer }
	m, err := NewModule(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// step is one scripted DM sampling instant: the predicate observations going
// in, the expected mode and reason coming out.
type step struct {
	ttf, safer bool
	wantMode   Mode
	wantReason SwitchReason
}

// drive runs the scripted sequence through decideState, threading the DM
// state exactly like the executor does.
func drive(t *testing.T, policy Policy, seq []step) {
	t.Helper()
	var ttf, safer bool
	m := policyModule(t, policy, &ttf, &safer)
	st := m.initDMState()
	for i, s := range seq {
		ttf, safer = s.ttf, s.safer
		st = m.decideState(st, nil)
		if st.Mode != s.wantMode || st.Reason != s.wantReason {
			t.Fatalf("step %d (ttf=%v safer=%v): got (%v, %q), want (%v, %q)",
				i, s.ttf, s.safer, st.Mode, st.Reason, s.wantMode, s.wantReason)
		}
	}
}

// mustPolicy resolves a spec or fails the test.
func mustPolicy(t *testing.T, spec string) Policy {
	t.Helper()
	p, err := ParsePolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFig9TruthTable pins the default policy to the paper's Figure 9 rules,
// reason by reason. The module starts in SC.
func TestFig9TruthTable(t *testing.T) {
	drive(t, mustPolicy(t, "soter-fig9"), []step{
		{ttf: false, safer: false, wantMode: ModeSC, wantReason: ReasonNone},    // SC, not recovered
		{ttf: false, safer: true, wantMode: ModeAC, wantReason: ReasonRecovery}, // SC→AC on φsafer
		{ttf: false, safer: false, wantMode: ModeAC, wantReason: ReasonNone},    // AC holds while safe
		{ttf: true, safer: false, wantMode: ModeSC, wantReason: ReasonTTFTrip},  // AC→SC on ttf2Δ
		{ttf: true, safer: true, wantMode: ModeSC, wantReason: ReasonClamped},   // recovery proposed, clamped
		{ttf: false, safer: true, wantMode: ModeAC, wantReason: ReasonRecovery},
	})
}

// TestStickySCTruthTable: after a disengagement the policy dwells in SC for
// K periods before φsafer may recover, counting forced and own entries alike.
func TestStickySCTruthTable(t *testing.T) {
	drive(t, mustPolicy(t, "sticky-sc:3"), []step{
		// Initial SC also dwells: two held periods, then recovery.
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeAC, wantReason: ReasonRecovery},
		{ttf: true, wantMode: ModeSC, wantReason: ReasonTTFTrip},
		// Dwell restarts after the trip, even though φsafer holds throughout.
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeAC, wantReason: ReasonRecovery},
		{wantMode: ModeAC, wantReason: ReasonNone},
		// Dwell satisfied but φsafer absent: plain SC hold, no recovery.
		{ttf: true, wantMode: ModeSC, wantReason: ReasonTTFTrip},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: false, wantMode: ModeSC, wantReason: ReasonNone},
		{safer: true, wantMode: ModeAC, wantReason: ReasonRecovery},
	})
}

// TestHysteresisTruthTable: recovery requires φsafer for K consecutive DM
// periods; one sample outside φsafer resets the count.
func TestHysteresisTruthTable(t *testing.T) {
	drive(t, mustPolicy(t, "hysteresis:3"), []step{
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: false, wantMode: ModeSC, wantReason: ReasonNone}, // streak broken
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
		{safer: true, wantMode: ModeAC, wantReason: ReasonRecovery},
		{ttf: true, wantMode: ModeSC, wantReason: ReasonTTFTrip},
		{safer: true, wantMode: ModeSC, wantReason: ReasonDwellHold},
	})
}

// TestAlwaysACTruthTable: the adversarial baseline proposes AC at every
// instant; the framework clamp is what disengages it in unsafe states.
func TestAlwaysACTruthTable(t *testing.T) {
	drive(t, mustPolicy(t, "always-ac"), []step{
		{wantMode: ModeAC, wantReason: ReasonRecovery}, // leaves SC immediately, φsafer or not
		{wantMode: ModeAC, wantReason: ReasonNone},
		{ttf: true, wantMode: ModeSC, wantReason: ReasonClamped}, // only the clamp stops it
		{ttf: true, wantMode: ModeSC, wantReason: ReasonClamped}, // held down while unsafe
		{wantMode: ModeAC, wantReason: ReasonRecovery},
	})
}

// TestAlwaysSCTruthTable: never leaves the certified controller.
func TestAlwaysSCTruthTable(t *testing.T) {
	drive(t, mustPolicy(t, "always-sc"), []step{
		{safer: true, wantMode: ModeSC, wantReason: ReasonNone},
		{wantMode: ModeSC, wantReason: ReasonNone},
		{ttf: true, wantMode: ModeSC, wantReason: ReasonNone},
		{safer: true, wantMode: ModeSC, wantReason: ReasonNone},
	})
}

// chaoticPolicy is the worst policy expressible through the API: it proposes
// a pseudo-random mode every instant — AC in unsafe states, garbage mode
// values, the lot — while keeping deterministic seeded state.
type chaoticPolicy struct{ seed int64 }

func (p chaoticPolicy) Name() string      { return "chaotic" }
func (p chaoticPolicy) Init() PolicyState { return rand.New(rand.NewSource(p.seed)) }

func (chaoticPolicy) Decide(st PolicyState, _ *DecisionContext) (Mode, PolicyState, SwitchReason) {
	rng := st.(*rand.Rand)
	switch rng.Intn(4) {
	case 0:
		return ModeSC, rng, ReasonNone
	case 1:
		return ModeAC, rng, ReasonNone
	case 2:
		return ModeAC, rng, ReasonRecovery
	default:
		return Mode(97), rng, SwitchReason("junk")
	}
}

// TestClampHoldsForAdversarialPolicies is the framework-clamp property test:
// no policy, however adversarial, can hold AC mode in a state where ttf2Δ
// fails, and non-AC proposals (including garbage modes) always land in SC.
// This is the "policy proposes, module disposes" contract that keeps the
// Theorem 3.1 argument policy-independent.
func TestClampHoldsForAdversarialPolicies(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var ttf, safer bool
		m := policyModule(t, chaoticPolicy{seed: seed}, &ttf, &safer)
		env := rand.New(rand.NewSource(seed * 977))
		st := m.initDMState()
		sawClamp := false
		for i := 0; i < 2000; i++ {
			ttf = env.Intn(3) == 0
			safer = env.Intn(2) == 0
			st = m.decideState(st, nil)
			if ttf && st.Mode != ModeSC {
				t.Fatalf("seed %d step %d: mode %v while ttf2Δ fails — clamp violated", seed, i, st.Mode)
			}
			if st.Mode != ModeSC && st.Mode != ModeAC {
				t.Fatalf("seed %d step %d: garbage mode %v escaped the module", seed, i, st.Mode)
			}
			if st.Reason == ReasonClamped {
				sawClamp = true
			}
		}
		if !sawClamp {
			t.Fatalf("seed %d: chaotic policy was never clamped; the property is vacuous", seed)
		}
	}
}

// TestPolicyRegistry exercises spec parsing and canonicalization edge cases
// and pins the fixed table to the five built-ins.
func TestPolicyRegistry(t *testing.T) {
	for _, name := range []string{"soter-fig9", "sticky-sc", "hysteresis", "always-ac", "always-sc"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("built-in %q did not parse: %v", name, err)
		}
	}

	canon := map[string]string{
		"":              DefaultPolicyName,
		"soter-fig9":    DefaultPolicyName,
		"sticky-sc":     "sticky-sc:10",
		"sticky-sc:10":  "sticky-sc:10",
		"sticky-sc:25":  "sticky-sc:25",
		"hysteresis":    "hysteresis:3",
		"hysteresis:99": "hysteresis:99",
		"always-ac":     "always-ac",
	}
	for spec, want := range canon {
		got, err := CanonicalPolicySpec(spec)
		if err != nil {
			t.Errorf("CanonicalPolicySpec(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("CanonicalPolicySpec(%q) = %q, want %q", spec, got, want)
		}
	}

	for _, bad := range []string{"no-such-policy", "sticky-sc:0", "sticky-sc:-3", "sticky-sc:x", "soter-fig9:2", "always-ac:1"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", bad)
		}
	}

	want := []string{"always-ac", "always-sc", "hysteresis", "soter-fig9", "sticky-sc"}
	if got := PolicyNames(); !slices.Equal(got, want) {
		t.Errorf("PolicyNames() = %v, want %v", got, want)
	}
	if _, err := ParsePolicy("no-such-policy"); err == nil || !strings.Contains(err.Error(), "soter-fig9") {
		t.Errorf("unknown-policy error should list the policy names, got: %v", err)
	}
}

// TestDefaultPolicyMatchesLegacyFig9 replays random observation sequences
// through decideState with the default policy and through an inline
// transcription of the pre-redesign hardwired rules; the mode sequences must
// agree wherever the legacy rules were defined (the one divergence — SC
// recovery while ttf2Δ fails — is unreachable for well-formed modules by
// (P3) and is covered by TestDecide).
func TestDefaultPolicyMatchesLegacyFig9(t *testing.T) {
	legacy := func(mode Mode, ttf, safer bool) Mode {
		switch mode {
		case ModeAC:
			if ttf {
				return ModeSC
			}
			return ModeAC
		default:
			if safer {
				return ModeAC
			}
			return ModeSC
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		var ttf, safer bool
		m := policyModule(t, nil, &ttf, &safer) // nil Decl.Policy = default fig9
		env := rand.New(rand.NewSource(seed))
		st := m.initDMState()
		want := ModeSC
		for i := 0; i < 2000; i++ {
			ttf = env.Intn(3) == 0
			// Well-formedness coupling: φsafer states survive 2Δ (P3), so a
			// sound analyzer never reports safer ∧ ttf.
			safer = !ttf && env.Intn(2) == 0
			st = m.decideState(st, nil)
			want = legacy(want, ttf, safer)
			if st.Mode != want {
				t.Fatalf("seed %d step %d: policy path %v, legacy rules %v", seed, i, st.Mode, want)
			}
		}
	}
}

// FuzzParsePolicy holds policy-spec parsing, the decoder of every scenario's
// and job's "policy" field, to its contract: it never panics, an accepted
// spec's canonical name parses back to itself, and parsing is deterministic
// (the same spec gives the same name or the same error).
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicy(spec)
		again, againErr := ParsePolicy(spec)
		if err != nil {
			if againErr == nil || againErr.Error() != err.Error() {
				t.Fatalf("ParsePolicy(%q) errors differ: %v, then %v", spec, err, againErr)
			}
			return
		}
		if againErr != nil || again.Name() != p.Name() {
			t.Fatalf("ParsePolicy(%q) not deterministic: %q, then %v, %v", spec, p.Name(), again, againErr)
		}
		canon, err := ParsePolicy(p.Name())
		if err != nil {
			t.Fatalf("canonical name %q of %q does not parse: %v", p.Name(), spec, err)
		}
		if canon.Name() != p.Name() {
			t.Fatalf("canonical name %q of %q reparses as %q", p.Name(), spec, canon.Name())
		}
	})
}
