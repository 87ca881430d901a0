package soter_test

import (
	"fmt"
	"time"

	soter "repro"
)

// countdown is a custom switching policy: after a disengagement it waits a
// fixed number of DM periods and then proposes AC unconditionally. The
// proposal is safe regardless — the framework clamps any AC proposal to SC
// whenever ttf2Δ fails, so a policy can only influence *when* performance is
// restored, never whether safety holds.
type countdown struct{ wait int }

func (p countdown) Name() string            { return fmt.Sprintf("countdown:%d", p.wait) }
func (p countdown) Init() soter.PolicyState { return 0 }

func (p countdown) Decide(st soter.PolicyState, ctx *soter.DecisionContext) (soter.Mode, soter.PolicyState, soter.SwitchReason) {
	waited, _ := st.(int)
	if ctx.Current == soter.ModeAC {
		if ctx.TTF2Delta() {
			return soter.ModeSC, 0, soter.ReasonTTFTrip
		}
		return soter.ModeAC, 0, soter.ReasonNone
	}
	waited++
	if waited < p.wait {
		return soter.ModeSC, waited, soter.ReasonDwellHold
	}
	return soter.ModeAC, 0, soter.ReasonRecovery
}

// ExampleModuleDecl_policy runs an RTA module under a custom switching
// policy, passed as ModuleDecl.Policy. The module starts in SC; countdown:3
// holds it there for two DM decisions and hands control to the AC at the
// third. The named policies that scenarios, jobs and CLIs select by spec
// string form a fixed table of built-ins; ParsePolicy and
// CanonicalPolicySpec resolve against it.
func ExampleModuleDecl_policy() {
	const period = 100 * time.Millisecond
	command := func(u float64) soter.StepFunc {
		return func(st soter.State, _ soter.Valuation) (soter.State, soter.Valuation, error) {
			return st, soter.Valuation{"cmd": u}, nil
		}
	}
	ac, _ := soter.NewNode("fast", period, nil, []soter.TopicName{"cmd"}, command(1))
	sc, _ := soter.NewNode("brake", period, nil, []soter.TopicName{"cmd"}, command(0))
	mod, err := soter.NewRTAModule(soter.ModuleDecl{
		Name:      "motion",
		AC:        ac,
		SC:        sc,
		Delta:     period,
		TTF2Delta: func(soter.Valuation) bool { return false },
		InSafer:   func(soter.Valuation) bool { return true },
		Policy:    countdown{wait: 3},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	sys, _ := soter.NewSystem([]*soter.Module{mod}, nil)
	exec, _ := soter.NewExecutor(sys, nil, soter.WithObservers(soter.ObserverFunc(func(e soter.Event) {
		if sw, ok := e.(soter.ModeSwitchEvent); ok {
			fmt.Printf("t=%v %s: %v -> %v (%s)\n", sw.T, sw.Module, sw.From, sw.To, sw.Reason)
		}
	})))
	if err := exec.RunUntil(time.Second); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(mod.Policy().Name())

	// Canonicalization makes defaults explicit, so every spelling of the
	// same built-in shares one result-cache entry.
	canon, _ := soter.CanonicalPolicySpec("sticky-sc")
	fmt.Println(canon)

	// Output:
	// t=300ms motion: SC -> AC (recovery)
	// countdown:3
	// sticky-sc:10
}
