package main

import (
	"testing"
	"time"

	soter "repro"
)

// TestRunHoldsClaim runs the program's full 60 s faulted mission and holds
// it to the sentence main prints.
func TestRunHoldsClaim(t *testing.T) {
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if err := claim(res); err != nil {
		t.Fatal(err)
	}
	if len(res.drones) != 2 {
		t.Errorf("%d drone outcomes, want 2", len(res.drones))
	}
	for _, sw := range res.coordinated {
		if sw.Module != "drone-b" || sw.To != soter.ModeSC {
			t.Errorf("coordinated switch %+v, want drone-b demoted to SC", sw)
		}
	}
}

// TestClaimRejects plants results the closing sentence would misreport.
func TestClaimRejects(t *testing.T) {
	held := func() result {
		return result{
			drones: []*droneRig{{name: "drone-a"}, {name: "drone-b"}},
			coordinated: []soter.ModeSwitchEvent{
				{T: 8720 * time.Millisecond, Module: "drone-b", From: soter.ModeAC, To: soter.ModeSC, Coordinated: true},
			},
		}
	}
	if err := claim(held()); err != nil {
		t.Fatalf("claim rejects a run that held: %v", err)
	}
	for name, mutate := range map[string]func(*result){
		"drone crashed": func(r *result) { r.drones[1].crashed = true },
		"no demotion":   func(r *result) { r.coordinated = nil },
		"φInv violated": func(r *result) {
			r.violation = &soter.InvariantViolationEvent{T: time.Second, Module: "drone-a"}
		},
	} {
		r := held()
		mutate(&r)
		if claim(r) == nil {
			t.Errorf("%s: claim accepted %+v", name, r)
		}
	}
}
