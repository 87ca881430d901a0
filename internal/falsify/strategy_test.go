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
		s, err := ParseStrategy(spec)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", spec, err)
			continue
		}
		if s.Name() != wantName {
			t.Errorf("ParseStrategy(%q).Name() = %q, want %q", spec, s.Name(), wantName)
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
		if _, err := ParseStrategy(spec); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", spec)
		}
	}
}

// FuzzParseStrategy holds strategy-spec parsing, the submit-time decoder of
// every campaign's "strategy" field, to its contract: it never panics, an
// accepted spec's canonical name parses back to itself, and parsing is
// deterministic (the same spec gives the same name or the same error).
func FuzzParseStrategy(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseStrategy(spec)
		again, againErr := ParseStrategy(spec)
		if err != nil {
			if againErr == nil || againErr.Error() != err.Error() {
				t.Fatalf("ParseStrategy(%q) errors differ: %v, then %v", spec, err, againErr)
			}
			return
		}
		if againErr != nil || again.Name() != s.Name() {
			t.Fatalf("ParseStrategy(%q) not deterministic: %q, then %v, %v", spec, s.Name(), again, againErr)
		}
		canon, err := ParseStrategy(s.Name())
		if err != nil {
			t.Fatalf("canonical name %q of %q does not parse: %v", s.Name(), spec, err)
		}
		if canon.Name() != s.Name() {
			t.Fatalf("canonical name %q of %q reparses as %q", s.Name(), spec, canon.Name())
		}
	})
}
