package soter_test

import (
	"errors"
	"math"
	"testing"
	"time"

	soter "repro"
)

// rover is the 1D plant used by the public-API tests: position x, velocity
// v, acceleration commands clamped to ±accelMax, walls at 0 and 100.
type rover struct{ x, v float64 }

const (
	roverAccel  = 2.0
	roverVmax   = 5.0
	roverLo     = 0.0
	roverHi     = 100.0
	roverMargin = 1.0
	roverDelta  = 100 * time.Millisecond
	roverTick   = 20 * time.Millisecond
)

func roverBrakeDist(v float64) float64 { return v * v / (2 * roverAccel) }

func roverMaxDisp(v, t float64) float64 {
	v = math.Min(v, roverVmax)
	t1 := (roverVmax - v) / roverAccel
	var d float64
	if t <= t1 {
		d = v*t + 0.5*roverAccel*t*t
	} else {
		d = v*t1 + 0.5*roverAccel*t1*t1 + roverVmax*(t-t1)
	}
	return math.Max(0, d)
}

func roverStopSpan(x, v, t float64) (lo, hi float64) {
	vHi := math.Min(roverVmax, v+roverAccel*t)
	vLo := math.Max(-roverVmax, v-roverAccel*t)
	hi = x + roverMaxDisp(v, t) + roverBrakeDist(math.Max(vHi, 0))
	lo = x - roverMaxDisp(-v, t) - roverBrakeDist(math.Max(-vLo, 0))
	return lo, hi
}

func roverSafe(x, v float64) bool {
	return x-roverBrakeDist(math.Max(-v, 0)) >= roverLo+roverMargin &&
		x+roverBrakeDist(math.Max(v, 0)) <= roverHi-roverMargin
}

func roverTTF(x, v float64) bool {
	lo, hi := roverStopSpan(x, v, (2 * roverDelta).Seconds())
	return lo < roverLo+roverMargin || hi > roverHi-roverMargin
}

func roverSafer(x, v float64) bool {
	lo, hi := roverStopSpan(x, v, (4 * roverDelta).Seconds())
	return lo >= roverLo+roverMargin && hi <= roverHi-roverMargin
}

func roverStateOf(v soter.Valuation) (rover, bool) {
	raw, ok := v["rover/state"]
	if !ok || raw == nil {
		return rover{}, false
	}
	r, ok := raw.(rover)
	return r, ok
}

// buildRoverModule assembles the quickstart RTA module through the public
// API: full-throttle AC, braking SC, reachability-based predicates.
func buildRoverModule(t *testing.T, name string, topicPrefix string) *soter.Module {
	t.Helper()
	stateT := soter.TopicName(topicPrefix + "/state")
	cmdT := soter.TopicName(topicPrefix + "/cmd")
	stateOf := func(v soter.Valuation) (rover, bool) {
		raw, ok := v[stateT]
		if !ok || raw == nil {
			return rover{}, false
		}
		r, ok := raw.(rover)
		return r, ok
	}
	ac, err := soter.NewNode(name+".ac", roverTick,
		[]soter.TopicName{stateT}, []soter.TopicName{cmdT},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, soter.Valuation{cmdT: roverAccel}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := soter.NewNode(name+".sc", roverTick,
		[]soter.TopicName{stateT}, []soter.TopicName{cmdT},
		func(st soter.State, in soter.Valuation) (soter.State, soter.Valuation, error) {
			r, ok := stateOf(in)
			if !ok {
				return st, soter.Valuation{cmdT: 0.0}, nil
			}
			u := -r.v / roverTick.Seconds()
			u = math.Max(-roverAccel, math.Min(roverAccel, u))
			return st, soter.Valuation{cmdT: u}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := soter.NewRTAModule(soter.ModuleDecl{
		Name:  name,
		AC:    ac,
		SC:    sc,
		Delta: roverDelta,
		TTF2Delta: func(v soter.Valuation) bool {
			r, ok := stateOf(v)
			return !ok || roverTTF(r.x, r.v)
		},
		InSafer: func(v soter.Valuation) bool {
			r, ok := stateOf(v)
			return ok && roverSafer(r.x, r.v)
		},
		Safe: func(v soter.Valuation) bool {
			r, ok := stateOf(v)
			return !ok || roverSafe(r.x, r.v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// roverEnv integrates one rover and publishes its state on the topic.
func roverEnv(r *rover, stateT, cmdT soter.TopicName) soter.Environment {
	return soter.EnvironmentFunc(func(prev, now time.Duration, topics *soter.Store) error {
		dt := (now - prev).Seconds()
		u := 0.0
		if raw, err := topics.Get(cmdT); err == nil && raw != nil {
			if v, ok := raw.(float64); ok {
				u = math.Max(-roverAccel, math.Min(roverAccel, v))
			}
		}
		r.v = math.Max(-roverVmax, math.Min(roverVmax, r.v+u*dt))
		r.x += r.v * dt
		return topics.Set(stateT, *r)
	})
}

// countViolations attaches an observer that counts the run's φInv
// violations into n.
func countViolations(n *int) soter.ExecutorOption {
	return soter.WithObservers(soter.ObserverFunc(func(e soter.Event) {
		if _, ok := e.(soter.InvariantViolationEvent); ok {
			*n++
		}
	}))
}

// TestTheorem31EndToEnd: the RTA module keeps the rover inside φsafe for the
// whole run with φInv checked at every DM step, while a plain AC-only system
// escapes. This is the public-API statement of Theorem 3.1.
func TestTheorem31EndToEnd(t *testing.T) {
	mod := buildRoverModule(t, "SafeRover", "rover")
	sys, err := soter.NewSystem([]*soter.Module{mod}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rover{x: 10}
	violations := 0
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "rover/state", Default: r}},
		countViolations(&violations),
		soter.WithEnvironment(roverEnv(&r, "rover/state", "rover/cmd")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("φInv violated at %d DM steps", violations)
	}
	if r.x < roverLo+roverMargin || r.x > roverHi-roverMargin {
		t.Fatalf("rover escaped φsafe: x=%v", r.x)
	}
	// The rover made real progress under the AC before the SC parked it.
	if r.x < 90 {
		t.Errorf("rover should use the fast AC most of the way: x=%v", r.x)
	}

	// Contrast: AC alone blows through the wall.
	acOnly, err := soter.NewNode("solo", roverTick, []soter.TopicName{"rover/state"},
		[]soter.TopicName{"rover/cmd"},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, soter.Valuation{"rover/cmd": roverAccel}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	plainSys, err := soter.NewSystem(nil, []*soter.Node{acOnly})
	if err != nil {
		t.Fatal(err)
	}
	r2 := rover{x: 10}
	exec2, err := soter.NewExecutor(plainSys,
		[]soter.Topic{{Name: "rover/state", Default: r2}},
		soter.WithEnvironment(roverEnv(&r2, "rover/state", "rover/cmd")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec2.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r2.x <= roverHi {
		t.Errorf("unprotected rover should escape: x=%v", r2.x)
	}
}

// TestTheorem41Composition: two independently protected rovers compose; the
// conjunction of their invariants holds; output overlap is rejected.
func TestTheorem41Composition(t *testing.T) {
	m1 := buildRoverModule(t, "RoverA", "a")
	m2 := buildRoverModule(t, "RoverB", "b")
	sys, err := soter.NewSystem([]*soter.Module{m1, m2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := rover{x: 10}, rover{x: 50}
	envA := roverEnv(&ra, "a/state", "a/cmd")
	envB := roverEnv(&rb, "b/state", "b/cmd")
	both := soter.EnvironmentFunc(func(prev, now time.Duration, topics *soter.Store) error {
		if err := envA.Advance(prev, now, topics); err != nil {
			return err
		}
		return envB.Advance(prev, now, topics)
	})
	violations := 0
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "a/state", Default: ra}, {Name: "b/state", Default: rb}},
		countViolations(&violations),
		soter.WithEnvironment(both),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("composed invariant violated at %d DM steps", violations)
	}
	for name, x := range map[string]float64{"A": ra.x, "B": rb.x} {
		if x < roverLo+roverMargin || x > roverHi-roverMargin {
			t.Errorf("rover %s escaped: x=%v", name, x)
		}
	}

	// Output overlap: both modules on the same command topic is rejected.
	m3 := buildRoverModule(t, "RoverC", "a")
	if _, err := soter.NewSystem([]*soter.Module{m1, m3}, nil); !errors.Is(err, soter.ErrNotComposable) {
		t.Errorf("overlapping composition error = %v", err)
	}
}

// TestPublicWellFormednessErrors: the compiler-style checks surface through
// the public API.
func TestPublicWellFormednessErrors(t *testing.T) {
	ac, err := soter.NewNode("ac", time.Second, nil, []soter.TopicName{"cmd"},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := soter.NewNode("sc", time.Second, nil, []soter.TopicName{"other"},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	_, err = soter.NewRTAModule(soter.ModuleDecl{
		Name: "bad", AC: ac, SC: sc, Delta: time.Second,
		TTF2Delta: func(soter.Valuation) bool { return false },
		InSafer:   func(soter.Valuation) bool { return true },
	})
	if !errors.Is(err, soter.ErrNotWellFormed) {
		t.Errorf("(P1b) violation error = %v, want ErrNotWellFormed", err)
	}
}

// TestSwitchTelemetry: the paper's "programmable switching" is observable:
// the rover run records both the disengagement and the re-engagement... the
// rover parks at the wall, so here we check a ModeSwitchEvent observer sees
// the correct metadata on the first AC engagement.
func TestSwitchTelemetry(t *testing.T) {
	mod := buildRoverModule(t, "SafeRover", "rover")
	sys, err := soter.NewSystem([]*soter.Module{mod}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rover{x: 10}
	var switches []soter.ModeSwitchEvent
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "rover/state", Default: r}},
		soter.WithEnvironment(roverEnv(&r, "rover/state", "rover/cmd")),
		soter.WithObservers(soter.ObserverFunc(func(e soter.Event) {
			if sw, ok := e.(soter.ModeSwitchEvent); ok {
				switches = append(switches, sw)
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(switches) < 2 {
		t.Fatalf("switches = %v", switches)
	}
	first := switches[0]
	if first.Module != "SafeRover" || first.From != soter.ModeSC || first.To != soter.ModeAC {
		t.Errorf("first switch = %+v", first)
	}
	// Modes reported by the executor match the last switch.
	mode, err := exec.Mode("SafeRover")
	if err != nil {
		t.Fatal(err)
	}
	if mode != switches[len(switches)-1].To {
		t.Errorf("mode = %v, last switch to %v", mode, switches[len(switches)-1].To)
	}
}

// buildUnsoundRoverModule builds a module whose ttf check looks ahead only a
// fraction of the required 2Δ — violating the premise of Theorem 3.1 (the
// DM must detect danger early enough for the SC to act within its sampling
// period). The well-formedness conditions cannot catch this statically (the
// predicate is a black-box function); the negative tests show the invariant
// monitor and the safety outcome expose it.
func buildUnsoundRoverModule(t *testing.T, lookahead float64) *soter.Module {
	t.Helper()
	ac, err := soter.NewNode("u.ac", roverTick,
		[]soter.TopicName{"rover/state"}, []soter.TopicName{"rover/cmd"},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, soter.Valuation{"rover/cmd": roverAccel}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := soter.NewNode("u.sc", roverTick,
		[]soter.TopicName{"rover/state"}, []soter.TopicName{"rover/cmd"},
		func(st soter.State, in soter.Valuation) (soter.State, soter.Valuation, error) {
			r, ok := roverStateOf(in)
			if !ok {
				return st, soter.Valuation{"rover/cmd": 0.0}, nil
			}
			u := math.Max(-roverAccel, math.Min(roverAccel, -r.v/roverTick.Seconds()))
			return st, soter.Valuation{"rover/cmd": u}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := soter.NewRTAModule(soter.ModuleDecl{
		Name:  "UnsoundRover",
		AC:    ac,
		SC:    sc,
		Delta: roverDelta,
		TTF2Delta: func(v soter.Valuation) bool {
			r, ok := roverStateOf(v)
			if !ok {
				return true
			}
			// Only `lookahead` seconds of adversarial horizon instead of 2Δ.
			vHi := math.Min(roverVmax, r.v+roverAccel*lookahead)
			hi := r.x + roverMaxDisp(r.v, lookahead) + roverBrakeDist(math.Max(vHi, 0))
			return hi > roverHi-roverMargin || r.x < roverLo+roverMargin
		},
		InSafer: func(v soter.Valuation) bool {
			r, ok := roverStateOf(v)
			return ok && roverSafer(r.x, r.v)
		},
		Safe: func(v soter.Valuation) bool {
			r, ok := roverStateOf(v)
			return !ok || roverSafe(r.x, r.v)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestUnsoundLookaheadViolatesInvariant: with a ttf horizon far below 2Δ the
// DM switches too late; the φInv monitor flags the violation — the 2Δ in
// Figure 9 is load-bearing, not a tuning detail.
func TestUnsoundLookaheadViolatesInvariant(t *testing.T) {
	mod := buildUnsoundRoverModule(t, 0.005) // 5ms instead of 200ms
	sys, err := soter.NewSystem([]*soter.Module{mod}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rover{x: 10}
	violations := 0
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "rover/state", Default: r}},
		countViolations(&violations),
		soter.WithEnvironment(roverEnv(&r, "rover/state", "rover/cmd")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Fatalf("expected a φInv violation with a 5ms lookahead, got none (x=%v)", r.x)
	}
}

// TestSufficientLookaheadIsSafe: the same module with the full 2Δ horizon
// passes the monitor — the control for the negative test above.
func TestSufficientLookaheadIsSafe(t *testing.T) {
	mod := buildUnsoundRoverModule(t, (2 * roverDelta).Seconds())
	sys, err := soter.NewSystem([]*soter.Module{mod}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rover{x: 10}
	violations := 0
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "rover/state", Default: r}},
		countViolations(&violations),
		soter.WithEnvironment(roverEnv(&r, "rover/state", "rover/cmd")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("full-horizon module violated φInv at %d DM steps", violations)
	}
	if r.x > roverHi-roverMargin {
		t.Fatalf("rover escaped: x=%v", r.x)
	}
}
