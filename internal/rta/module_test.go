package rta

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/pubsub"
)

func mkNode(t *testing.T, name string, period time.Duration, in, out []pubsub.TopicName) *node.Node {
	t.Helper()
	n, err := node.New(name, period, in, out,
		func(st node.State, _ pubsub.Valuation) (node.State, pubsub.Valuation, error) {
			return st, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func always(bool) StatePredicate {
	return func(pubsub.Valuation) bool { return true }
}

func constPred(v bool) StatePredicate {
	return func(pubsub.Valuation) bool { return v }
}

func validDecl(t *testing.T) Decl {
	t.Helper()
	return Decl{
		Name:      "m",
		AC:        mkNode(t, "ac", 10*time.Millisecond, []pubsub.TopicName{"state"}, []pubsub.TopicName{"cmd"}),
		SC:        mkNode(t, "sc", 10*time.Millisecond, []pubsub.TopicName{"state"}, []pubsub.TopicName{"cmd"}),
		Delta:     100 * time.Millisecond,
		TTF2Delta: constPred(false),
		InSafer:   constPred(true),
		Safe:      constPred(true),
	}
}

func TestNewModuleWellFormed(t *testing.T) {
	m, err := NewModule(validDecl(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "m" || m.Delta() != 100*time.Millisecond {
		t.Errorf("module basics wrong: %v %v", m.Name(), m.Delta())
	}
	if m.DM().Period() != m.Delta() {
		t.Errorf("(P1a) DM period %v != Δ %v", m.DM().Period(), m.Delta())
	}
	// The generated DM defaults its phase to the max controller period.
	if got := m.DM().Schedule().Phase; got != 10*time.Millisecond {
		t.Errorf("DM phase = %v, want 10ms", got)
	}
	// The DM subscribes to the controllers' inputs (Idm ⊇ I(ac) ∪ I(sc)).
	if !slices.Contains(m.DM().Inputs(), "state") {
		t.Error("DM must subscribe to the controllers' inputs")
	}
	if len(m.DM().Outputs()) != 0 {
		t.Error("DM must not publish on any topic")
	}
}

func TestNewModuleStructuralChecks(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*testing.T, *Decl)
	}{
		{"empty name", func(t *testing.T, d *Decl) { d.Name = "" }},
		{"nil AC", func(t *testing.T, d *Decl) { d.AC = nil }},
		{"nil SC", func(t *testing.T, d *Decl) { d.SC = nil }},
		{"nil ttf", func(t *testing.T, d *Decl) { d.TTF2Delta = nil }},
		{"nil inSafer", func(t *testing.T, d *Decl) { d.InSafer = nil }},
		{"zero delta", func(t *testing.T, d *Decl) { d.Delta = 0 }},
		{"P1a AC too slow", func(t *testing.T, d *Decl) {
			d.AC = mkNode(t, "ac2", time.Second, []pubsub.TopicName{"state"}, []pubsub.TopicName{"cmd"})
		}},
		{"P1a SC too slow", func(t *testing.T, d *Decl) {
			d.SC = mkNode(t, "sc2", time.Second, []pubsub.TopicName{"state"}, []pubsub.TopicName{"cmd"})
		}},
		{"P1b output mismatch", func(t *testing.T, d *Decl) {
			d.SC = mkNode(t, "sc3", 10*time.Millisecond, []pubsub.TopicName{"state"}, []pubsub.TopicName{"cmd2"})
		}},
		{"AC == SC", func(t *testing.T, d *Decl) { d.SC = d.AC }},
		{"negative DM phase", func(t *testing.T, d *Decl) { d.DMPhase = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := validDecl(t)
			tt.mutate(t, &d)
			_, err := NewModule(d)
			if !errors.Is(err, ErrNotWellFormed) {
				t.Errorf("NewModule error = %v, want ErrNotWellFormed", err)
			}
		})
	}
}

// TestDecide exercises the Figure 9 switching logic exhaustively.
func TestDecide(t *testing.T) {
	tests := []struct {
		name         string
		mode         Mode
		ttf, inSafer bool
		want         Mode
	}{
		{"AC stays when safe", ModeAC, false, false, ModeAC},
		{"AC switches on ttf", ModeAC, true, false, ModeSC},
		{"AC switches on ttf even in safer", ModeAC, true, true, ModeSC},
		{"SC stays outside safer", ModeSC, false, false, ModeSC},
		{"SC returns in safer", ModeSC, false, true, ModeAC},
		// Changed by the policy redesign: the framework clamp overrides any
		// proposed AC while ttf2Δ fails, including the Figure 9 recovery.
		// (Unreachable for well-formed modules: (P3) makes φsafer states
		// survive 2Δ under any controller, so inSafer ⇒ ¬ttf2Δ there.)
		{"SC recovery clamped while ttf fails", ModeSC, true, true, ModeSC},
		{"unknown mode fails safe", Mode(99), false, true, ModeSC},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := validDecl(t)
			d.TTF2Delta = constPred(tt.ttf)
			d.InSafer = constPred(tt.inSafer)
			m, err := NewModule(d)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Decide(tt.mode, nil); got != tt.want {
				t.Errorf("Decide(%v) = %v, want %v", tt.mode, got, tt.want)
			}
		})
	}
}

func TestDMStepUpdatesMode(t *testing.T) {
	d := validDecl(t)
	d.TTF2Delta = constPred(true)
	m, err := NewModule(d)
	if err != nil {
		t.Fatal(err)
	}
	st, out, err := m.DM().Step(DMState{Mode: ModeAC}, pubsub.Valuation{"state": nil})
	if err != nil {
		t.Fatal(err)
	}
	if dm := st.(DMState); dm.Mode != ModeSC || dm.Reason != ReasonTTFTrip {
		t.Errorf("DM step state = %+v, want SC mode with ttf-trip reason", dm)
	}
	if len(out) != 0 {
		t.Errorf("DM published %v", out)
	}
	// A corrupt local state is an error, not a panic.
	if _, _, err := m.DM().Step("bogus", pubsub.Valuation{"state": nil}); err == nil {
		t.Error("expected error for bad DM state type")
	}
}

func TestSafeHoldsDefaultsTrue(t *testing.T) {
	d := validDecl(t)
	d.Safe = nil
	m, err := NewModule(d)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SafeHolds(nil) {
		t.Error("module without Safe predicate should report safe")
	}
}

type fakeCert struct{ p2a, p2b, p3 error }

func (c fakeCert) CheckP2a() error { return c.p2a }
func (c fakeCert) CheckP2b() error { return c.p2b }
func (c fakeCert) CheckP3() error  { return c.p3 }

func TestVerify(t *testing.T) {
	m, err := NewModule(validDecl(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(fakeCert{}); err != nil {
		t.Errorf("Verify with passing cert = %v", err)
	}
	if err := m.Verify(nil); !errors.Is(err, ErrNotWellFormed) {
		t.Errorf("Verify(nil) = %v", err)
	}
	boom := fmt.Errorf("unsound")
	for _, c := range []fakeCert{{p2a: boom}, {p2b: boom}, {p3: boom}} {
		if err := m.Verify(c); !errors.Is(err, ErrNotWellFormed) {
			t.Errorf("Verify with failing cert = %v", err)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeAC.String() != "AC" || ModeSC.String() != "SC" {
		t.Error("mode strings wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Errorf("unknown mode string = %q", Mode(42).String())
	}
}

func TestMonitoredIncludesExtras(t *testing.T) {
	d := validDecl(t)
	d.Monitored = []pubsub.TopicName{"battery", "state"}
	m, err := NewModule(d)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Monitored()
	want := map[pubsub.TopicName]bool{"battery": true, "state": true}
	if len(got) != len(want) {
		t.Fatalf("Monitored = %v", got)
	}
	for _, tn := range got {
		if !want[tn] {
			t.Errorf("unexpected monitored topic %q", tn)
		}
	}
}
