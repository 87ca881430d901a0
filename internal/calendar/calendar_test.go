package calendar

import (
	"reflect"
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

func TestCalendarAdd(t *testing.T) {
	c := New()
	if err := c.Add("a", Schedule{Period: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("a", Schedule{Period: time.Second}); err == nil {
		t.Error("expected error for duplicate node")
	}
	if err := c.Add("", Schedule{Period: time.Second}); err == nil {
		t.Error("expected error for empty name")
	}
	if err := c.Add("b", Schedule{}); err == nil {
		t.Error("expected error for invalid schedule")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

// nextTime is the executor's step rule: the earliest firing instant after ct
// and the sorted set of nodes firing then.
func nextTime(c *Calendar, ct time.Duration) (time.Duration, []string, bool) {
	next, ok := c.PeekNext(ct)
	if !ok {
		return 0, nil, false
	}
	return next, c.FiringAt(next), true
}

func TestCalendarNextTime(t *testing.T) {
	c := New()
	mustAdd(t, c, "slow", Schedule{Period: 100 * time.Millisecond})
	mustAdd(t, c, "fast", Schedule{Period: 20 * time.Millisecond})
	mustAdd(t, c, "offset", Schedule{Period: 100 * time.Millisecond, Phase: 10 * time.Millisecond})

	next, firing, ok := nextTime(c, 0)
	if !ok || next != 10*time.Millisecond || !reflect.DeepEqual(firing, []string{"offset"}) {
		t.Errorf("NextTime(0) = %v %v %v", next, firing, ok)
	}
	next, firing, ok = nextTime(c, 10*time.Millisecond)
	if !ok || next != 20*time.Millisecond || !reflect.DeepEqual(firing, []string{"fast"}) {
		t.Errorf("NextTime(10ms) = %v %v %v", next, firing, ok)
	}
	// At 100ms both slow and fast fire; names are sorted.
	next, firing, ok = nextTime(c, 99*time.Millisecond)
	if !ok || next != 100*time.Millisecond || !reflect.DeepEqual(firing, []string{"fast", "slow"}) {
		t.Errorf("NextTime(99ms) = %v %v %v", next, firing, ok)
	}
}

func TestCalendarEmpty(t *testing.T) {
	c := New()
	if _, _, ok := nextTime(c, 0); ok {
		t.Error("empty calendar should report no next time")
	}
}

func TestCalendarNamesSorted(t *testing.T) {
	c := New()
	for _, n := range []string{"zz", "aa", "mm"} {
		mustAdd(t, c, n, Schedule{Period: time.Second})
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"aa", "mm", "zz"}) {
		t.Errorf("Names = %v", got)
	}
}

// Property: the firing set at the next instant is exactly the set of nodes
// whose schedule fires at that time.
func TestCalendarFiringConsistency(t *testing.T) {
	c := New()
	mustAdd(t, c, "a", Schedule{Period: 30 * time.Millisecond})
	mustAdd(t, c, "b", Schedule{Period: 70 * time.Millisecond, Phase: 10 * time.Millisecond})
	mustAdd(t, c, "c", Schedule{Period: 110 * time.Millisecond})
	ct := time.Duration(0)
	for i := 0; i < 200; i++ {
		next, firing, ok := nextTime(c, ct)
		if !ok {
			t.Fatal("calendar exhausted")
		}
		if next <= ct {
			t.Fatalf("time did not advance: %v -> %v", ct, next)
		}
		for _, n := range firing {
			s, _ := c.Schedule(n)
			if !s.FiresAt(next) {
				t.Fatalf("node %s in firing set but does not fire at %v", n, next)
			}
		}
		if got := c.FiringAt(next); !reflect.DeepEqual(got, firing) {
			t.Fatalf("FiringAt(%v) = %v, NextTime said %v", next, got, firing)
		}
		ct = next
	}
}

func mustAdd(t *testing.T, c *Calendar, name string, s Schedule) {
	t.Helper()
	if err := c.Add(name, s); err != nil {
		t.Fatal(err)
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
