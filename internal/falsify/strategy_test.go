package falsify

import (
	"slices"
	"testing"
)

func TestStrategyRegistry(t *testing.T) {
	if names := StrategyNames(); !slices.Equal(names, []string{"guided", "random", "schedule"}) {
		t.Errorf("StrategyNames() = %v, want [guided random schedule]", names)
	}
}

func TestParseStrategy(t *testing.T) {
	good := map[string]string{
		"":           DefaultStrategyName,
		"random":     "random",
		"guided":     "guided:8",
		"guided:4":   "guided:4",
		"schedule":   "schedule",
		"schedule:3": "schedule:3",
	}
	for spec, wantName := range good {
		s, err := parseStrategy(spec)
		if err != nil {
			t.Errorf("parseStrategy(%q): %v", spec, err)
			continue
		}
		if s.name != wantName {
			t.Errorf("parseStrategy(%q).name = %q, want %q", spec, s.name, wantName)
		}
	}
	bad := []string{
		"annealing",  // unregistered
		"random:3",   // random takes no parameter
		"guided:0",   // zero parameter
		"guided:-2",  // negative parameter
		"guided:x",   // non-numeric parameter
		"guided:4:4", // too many colons
		" guided",    // whitespace is not trimmed
	}
	for _, spec := range bad {
		if _, err := parseStrategy(spec); err == nil {
			t.Errorf("parseStrategy(%q) accepted", spec)
		}
	}
}

// FuzzParseStrategy holds strategy-spec parsing, the submit-time decoder of
// every campaign's "strategy" field, to its contract: it never panics, an
// accepted spec's canonical name parses back to itself, and parsing is
// deterministic (the same spec gives the same name or the same error).
func FuzzParseStrategy(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := parseStrategy(spec)
		again, againErr := parseStrategy(spec)
		if err != nil {
			if againErr == nil || againErr.Error() != err.Error() {
				t.Fatalf("parseStrategy(%q) errors differ: %v, then %v", spec, err, againErr)
			}
			return
		}
		if againErr != nil || again.name != s.name {
			t.Fatalf("parseStrategy(%q) not deterministic: %q, then %q, %v", spec, s.name, again.name, againErr)
		}
		canon, err := parseStrategy(s.name)
		if err != nil {
			t.Fatalf("canonical name %q of %q does not parse: %v", s.name, spec, err)
		}
		if canon.name != s.name {
			t.Fatalf("canonical name %q of %q reparses as %q", s.name, spec, canon.name)
		}
	})
}
