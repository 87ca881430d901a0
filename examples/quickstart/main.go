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
//
// The closing claim is printed only when claim accepts what the run
// observed; main_test.go holds the same function to the real run.
package main

import (
	"context"
	"fmt"
	"io"
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
type roverState struct{ X, V float64 }

// brakeDist is the stopping distance from speed v at full braking.
func brakeDist(v float64) float64 { return v * v / (2 * maxAccel) }

// maxDisp is the largest forward displacement achievable in time t starting
// at signed velocity v under the bounds.
func maxDisp(v, t float64) float64 {
	v = min(v, maxVel)
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
	vHi := min(maxVel, v+maxAccel*t)
	vLo := max(-maxVel, v-maxAccel*t)
	hi = x + maxDisp(v, t) + brakeDist(max(vHi, 0))
	lo = x - maxDisp(-v, t) - brakeDist(max(-vLo, 0))
	return lo, hi
}

// safe is φsafe: the rover can still stop before either wall.
func safe(x, v float64) bool {
	return x-brakeDist(max(-v, 0)) >= wallLo+margin &&
		x+brakeDist(max(v, 0)) <= wallHi-margin
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
	st, ok := in["rover/state"].(roverState)
	return st, ok
}

func clampAccel(u float64) float64 { return max(-maxAccel, min(u, maxAccel)) }

// result is what one run observed: the φInv monitor's first report (nil if
// φInv held), the extremes of x over every environment step, the mode
// switches in each direction and the simulated time reached.
type result struct {
	violation  *soter.InvariantViolationEvent
	minX, maxX float64
	toSC, toAC int
	end        time.Duration
}

// claim reports why the closing sentence would be false for res, or nil if
// it holds: φInv held, the rover kept its margin from both walls at every
// step, and control passed to the SC and back to the AC at least once each.
func claim(res result) error {
	if v := res.violation; v != nil {
		return fmt.Errorf("safety violated: φInv failed at t=%v in module %q", v.T, v.Module)
	}
	if res.minX < wallLo+margin || res.maxX > wallHi-margin {
		return fmt.Errorf("rover left [%.0f, %.0f]: x ranged over [%.2f, %.2f]",
			wallLo+margin, wallHi-margin, res.minX, res.maxX)
	}
	if res.toSC == 0 || res.toAC == 0 {
		return fmt.Errorf("expected AC→SC and SC→AC switches, got %d and %d", res.toSC, res.toAC)
	}
	return nil
}

func main() {
	// Ctrl-C cancels the run between instants.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	res, err := run(ctx, os.Stdout)
	interrupted := ctx.Err() != nil
	stop()
	if interrupted {
		fmt.Printf("\ninterrupted at t=%v with %d mode switches so far\n", res.end, res.toSC+res.toAC)
		return
	}
	if err == nil {
		err = claim(res)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d mode switches; rover stayed within [%.0f+%.0f, %.0f-%.0f] — φsafe held.\n",
		res.toSC+res.toAC, wallLo, margin, wallHi, margin)
	fmt.Println("The full-throttle AC was used whenever safe; the SC braked near the wall.")
}

// run simulates 60 s of the rover, printing its state to w every 5 s, and
// returns what it observed. A φInv violation is recorded in the result, not
// returned as an error.
func run(ctx context.Context, w io.Writer) (result, error) {
	var res result
	// The untrusted AC: full throttle toward the far wall — fast, and
	// guaranteed to crash if left alone.
	ac, err := soter.NewNode("rover.ac", ctrlTick,
		[]soter.TopicName{"rover/state"}, []soter.TopicName{"rover/cmd"},
		func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, soter.Valuation{"rover/cmd": maxAccel}, nil
		})
	if err != nil {
		return res, err
	}
	// The certified SC: brake to a stop.
	sc, err := soter.NewNode("rover.sc", ctrlTick,
		[]soter.TopicName{"rover/state"}, []soter.TopicName{"rover/cmd"},
		func(st soter.State, in soter.Valuation) (soter.State, soter.Valuation, error) {
			rs, _ := stateOf(in)
			return st, soter.Valuation{"rover/cmd": clampAccel(-rs.V / ctrlTick.Seconds())}, nil
		})
	if err != nil {
		return res, err
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
		return res, err
	}

	sys, err := soter.NewSystem([]*soter.Module{mod}, nil)
	if err != nil {
		return res, err
	}

	// The environment integrates the rover dynamics between events and
	// publishes the state estimate.
	rover := roverState{X: 10}
	res.minX, res.maxX = rover.X, rover.X
	env := soter.EnvironmentFunc(func(prev, now time.Duration, topics *soter.Store) error {
		dt := (now - prev).Seconds()
		raw, _ := topics.Get("rover/cmd")
		u, _ := raw.(float64)
		rover.V = max(-maxVel, min(rover.V+clampAccel(u)*dt, maxVel))
		rover.X += rover.V * dt
		res.minX = min(res.minX, rover.X)
		res.maxX = max(res.maxX, rover.X)
		return topics.Set("rover/state", rover)
	})

	// Consume the typed event stream through an Observer: count the mode
	// switches and keep the first φInv violation the executor's monitor
	// reports.
	onEvent := soter.ObserverFunc(func(e soter.Event) {
		switch e := e.(type) {
		case soter.ModeSwitchEvent:
			if e.To == soter.ModeSC {
				res.toSC++
			} else {
				res.toAC++
			}
		case soter.InvariantViolationEvent:
			if res.violation == nil {
				res.violation = &e
			}
		}
	})
	exec, err := soter.NewExecutor(sys,
		[]soter.Topic{{Name: "rover/state", Default: rover}},
		soter.WithEnvironment(env),
		soter.WithObservers(onEvent),
	)
	if err != nil {
		return res, err
	}

	// Run for 60 simulated seconds, reporting every 5 s.
	fmt.Fprintln(w, "t(s)   x(m)    v(m/s)  mode")
	for s := 1; s <= 60; s++ {
		err := exec.Run(ctx, time.Duration(s)*time.Second)
		res.end = exec.Now()
		if err != nil {
			return res, err
		}
		if s%5 != 0 {
			continue
		}
		mode, err := exec.Mode("SafeRover")
		if err != nil {
			return res, err
		}
		fmt.Fprintf(w, "%4d  %6.2f  %6.2f  %v\n", s, rover.X, rover.V, mode)
	}
	return res, nil
}
