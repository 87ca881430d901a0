package node

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Schedule
		wantErr bool
	}{
		{"valid", Schedule{Period: time.Second}, false},
		{"valid with phase", Schedule{Period: time.Second, Phase: time.Millisecond}, false},
		{"zero period", Schedule{}, true},
		{"negative period", Schedule{Period: -1}, true},
		{"negative phase", Schedule{Period: 1, Phase: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestScheduleFiresAt(t *testing.T) {
	s := Schedule{Period: 100 * time.Millisecond, Phase: 20 * time.Millisecond}
	for _, tc := range []struct {
		t    time.Duration
		want bool
	}{
		{0, false},
		{20 * time.Millisecond, true},
		{120 * time.Millisecond, true},
		{100 * time.Millisecond, false},
		{10 * time.Millisecond, false},
	} {
		if got := s.FiresAt(tc.t); got != tc.want {
			t.Errorf("FiresAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestScheduleNextAfter(t *testing.T) {
	s := Schedule{Period: 100 * time.Millisecond, Phase: 20 * time.Millisecond}
	for _, tc := range []struct {
		t, want time.Duration
	}{
		{0, 20 * time.Millisecond},
		{20 * time.Millisecond, 120 * time.Millisecond},
		{21 * time.Millisecond, 120 * time.Millisecond},
		{119 * time.Millisecond, 120 * time.Millisecond},
	} {
		if got := s.NextAfter(tc.t); got != tc.want {
			t.Errorf("NextAfter(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

// Property: NextAfter returns a firing time strictly in the future, and it
// is the earliest one.
func TestNextAfterProperty(t *testing.T) {
	f := func(periodRaw, phaseRaw, tRaw int64) bool {
		period := time.Duration(1+abs64(periodRaw)%int64(time.Second)) * 10
		phase := time.Duration(abs64(phaseRaw) % int64(time.Second))
		ct := time.Duration(abs64(tRaw) % int64(10*time.Second))
		s := Schedule{Period: period, Phase: phase}
		next := s.NextAfter(ct)
		if next <= ct {
			return false
		}
		if !s.FiresAt(next) {
			return false
		}
		// Minimality: before the phase, the first firing is the phase
		// itself; afterwards, the previous periodic firing must not lie in
		// (ct, next).
		if ct < phase {
			return next == phase
		}
		return next-period <= ct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == -1<<63 {
			return 1<<63 - 1
		}
		return -x
	}
	return x
}
