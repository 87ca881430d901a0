// Command quickstart is the smallest complete SOTER program: a rover on a
// 100 m line with a wall at each end. An untrusted "advanced controller"
// drives at full throttle toward the far wall; the certified safe controller
// brakes. An RTA module with a 2Δ worst-case reachability check keeps the
// rover provably inside the safe region while letting the fast controller
// run whenever it is safe — the Simplex pattern of Figure 1, programmed with
// the declarative API of Figures 4 and 7.
//
// It also shows the context-aware execution surface: the run is driven by
// Run(ctx, ...) under a deadline, and the mode switches are consumed from
// the typed event stream through an Observer instead of a bespoke hook.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	soter "repro"
)

// The rover's 1D dynamics: position x ∈ [0, 100], velocity v, acceleration
// command u with |u| ≤ maxAccel and |v| ≤ maxVel.
const (
	maxAccel = 2.0 // m/s²
	maxVel   = 5.0 // m/s
	wallLo   = 0.0
	wallHi   = 100.0
	margin   = 1.0 // keep 1 m clearance from the walls
	delta    = 100 * time.Millisecond
	ctrlTick = 20 * time.Millisecond
)

// roverState is the environment-owned plant state, published on "rover/state".
type roverState struct {
	X, V float64
}

// brakeDist is the stopping distance from speed v at full braking.
func brakeDist(v float64) float64 {
	if v < 0 {
		v = -v
	}
	return v * v / (2 * maxAccel)
}

// maxDisp is the largest forward displacement achievable in time t starting
// at signed velocity v under the bounds.
func maxDisp(v, t float64) float64 {
	v = minF(v, maxVel)
	t1 := (maxVel - v) / maxAccel
	if t <= t1 {
		return v*t + 0.5*maxAccel*t*t
	}
	return v*t1 + 0.5*maxAccel*t1*t1 + maxVel*(t-t1)
}

// stopSpan returns the interval the rover can sweep if it evolves under any
// admissible control for horizon t and then brakes — the 1D analogue of the
// StopBox used by the drone case study.
func stopSpan(x, v, t float64) (lo, hi float64) {
	vHi := minF(maxVel, v+maxAccel*t)
	vLo := maxF(-maxVel, v-maxAccel*t)
	hi = x + maxDisp(v, t) + brakeDist(maxF(vHi, 0))
	lo = x - maxDisp(-v, t) - brakeDist(maxF(-vLo, 0))
	return lo, hi
}

// safe is φsafe: the rover can still stop before either wall.
func safe(x, v float64) bool {
	return x-brakeDist(maxF(-v, 0)) >= wallLo+margin &&
		x+brakeDist(maxF(v, 0)) <= wallHi-margin
}

// ttf2Delta is the Figure 9 check: Reach(st, *, 2Δ) ⊄ φsafe.
func ttf2Delta(x, v float64) bool {
	lo, hi := stopSpan(x, v, (2 * delta).Seconds())
	return lo < wallLo+margin || hi > wallHi-margin
}

// inSafer is st ∈ φsafer, with a 2× horizon for hysteresis.
func inSafer(x, v float64) bool {
	lo, hi := stopSpan(x, v, (4 * delta).Seconds())
	return lo >= wallLo+margin && hi <= wallHi-margin
}

func stateOf(in soter.Valuation) (roverState, bool) {
	raw, ok := in["rover/state"]
	if !ok || raw == nil {
		return roverState{}, false
	}
	st, ok := raw.(roverState)
	return st, ok
}

func clampAccel(u float64) float64 {
	if u > maxAccel {
		return maxAccel
	}
	if u < -maxAccel {
		return -maxAccel
	}
	return u
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The untrusted AC: full throttle toward the far wall — fast, and
	// guaranteed to crash if left alone.
	ac, err := soter.NewNode("rover.ac", ctrlTick,
		[]soter.TopicName{"rover/state"}, []soter.TopicName{"rover/cmd"},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, soter.Valuation{"rover/cmd": maxAccel}, nil
		})
	if err != nil {
		return err
	}
	// The certified SC: brake to a stop.
	sc, err := soter.NewNode("rover.sc", ctrlTick,
		[]soter.TopicName{"rover/state"}, []soter.TopicName{"rover/cmd"},
		func(st soter.State, in soter.Valuation) (soter.State, soter.Valuation, error) {
			rs, ok := stateOf(in)
			if !ok {
				return st, soter.Valuation{"rover/cmd": 0.0}, nil
			}
			return st, soter.Valuation{"rover/cmd": clampAccel(-rs.V / ctrlTick.Seconds())}, nil
		})
	if err != nil {
		return err
	}

	// The RTA module declaration, mirroring Figure 7.
	mod, err := soter.NewRTAModule(soter.ModuleDecl{
		Name:  "SafeRover",
		AC:    ac,
		SC:    sc,
		Delta: delta,
		TTF2Delta: func(v soter.Valuation) bool {
			rs, ok := stateOf(v)
			return !ok || ttf2Delta(rs.X, rs.V)
		},
		InSafer: func(v soter.Valuation) bool {
			rs, ok := stateOf(v)
			return ok && inSafer(rs.X, rs.V)
		},
		Safe: func(v soter.Valuation) bool {
			rs, ok := stateOf(v)
			return !ok || safe(rs.X, rs.V)
		},
	})
	if err != nil {
		return err
	}

	sys, err := soter.NewSystem([]*soter.Module{mod}, nil)
	if err != nil {
		return err
	}

	// The environment integrates the rover dynamics between events and
	// publishes the state estimate.
	rover := roverState{X: 10}
	env := soter.EnvironmentFunc(func(prev, now time.Duration, topics *soter.Store) error {
		dt := (now - prev).Seconds()
		u := 0.0
		if raw, err := topics.Get("rover/cmd"); err == nil && raw != nil {
			if v, ok := raw.(float64); ok {
				u = clampAccel(v)
			}
		}
		rover.V += u * dt
		if rover.V > maxVel {
			rover.V = maxVel
		}
		if rover.V < -maxVel {
			rover.V = -maxVel
		}
		rover.X += rover.V * dt
		return topics.Set("rover/state", rover)
	})

	// Consume the typed event stream: collect the mode switches through an
	// Observer.
	var switches []soter.ModeSwitchEvent
	onEvent := soter.ObserverFunc(func(e soter.Event) {
		if sw, ok := e.(soter.ModeSwitchEvent); ok {
			switches = append(switches, sw)
		}
	})
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "rover/state", Default: rover}},
		soter.WithInvariantChecking(),
		soter.WithEnvironment(env),
		soter.WithObservers(onEvent),
	)
	if err != nil {
		return err
	}

	// Run for 60 simulated seconds, reporting once per second. Ctrl-C
	// cancels the run between instants.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Println("t(s)   x(m)    v(m/s)  mode")
	for s := 1; s <= 60; s++ {
		if err := exec.Run(ctx, time.Duration(s)*time.Second); err != nil {
			if ctx.Err() != nil {
				fmt.Printf("\ninterrupted at t=%v with %d mode switches so far\n", exec.Now(), len(switches))
				return nil
			}
			return fmt.Errorf("safety violated: %w", err)
		}
		mode, err := exec.Mode("SafeRover")
		if err != nil {
			return err
		}
		if s%5 == 0 {
			fmt.Printf("%4d  %6.2f  %6.2f  %v\n", s, rover.X, rover.V, mode)
		}
	}

	fmt.Printf("\n%d mode switches; rover stayed within [%.0f+%.0f, %.0f-%.0f] — φsafe held.\n",
		len(switches), wallLo, margin, wallHi, margin)
	if rover.X < wallLo+margin || rover.X > wallHi-margin {
		return fmt.Errorf("rover escaped the safe region: x=%.2f", rover.X)
	}
	fmt.Println("The full-throttle AC was used whenever safe; the SC braked near the wall.")
	return nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
