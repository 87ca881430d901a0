package main

import (
	"context"
	"io"
	"testing"
	"time"

	soter "repro"
)

// TestRunHoldsClaim runs the program's full 60 s horizon and holds it to the
// sentence main prints.
func TestRunHoldsClaim(t *testing.T) {
	res, err := run(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := claim(res); err != nil {
		t.Fatal(err)
	}
	if res.end != 60*time.Second {
		t.Errorf("run ended at %v, want 60s", res.end)
	}
	if res.maxX < 90 {
		t.Errorf("max x = %.2f: the AC never drove the rover toward the far wall", res.maxX)
	}
}

// TestClaimRejects plants results the closing sentence would misreport.
func TestClaimRejects(t *testing.T) {
	held := result{minX: 10, maxX: 98.84, toSC: 3, toAC: 3}
	if err := claim(held); err != nil {
		t.Fatalf("claim rejects a run that held: %v", err)
	}
	for name, mutate := range map[string]func(*result){
		"past far wall margin":  func(r *result) { r.maxX = 99.2 },
		"past near wall margin": func(r *result) { r.minX = 0.5 },
		"φInv violated": func(r *result) {
			r.violation = &soter.InvariantViolationEvent{T: time.Second, Module: "SafeRover"}
		},
		"never handed to SC": func(r *result) { r.toSC = 0 },
		"never handed back":  func(r *result) { r.toAC = 0 },
	} {
		r := held
		mutate(&r)
		if claim(r) == nil {
			t.Errorf("%s: claim accepted %+v", name, r)
		}
	}
}
