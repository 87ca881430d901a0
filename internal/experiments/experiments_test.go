package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/mission"
	"repro/internal/reach"
)

// claims holds every catalogue entry's claims, keyed by catalogue name: the
// shape the paper reports (who wins, what is zero, what is non-zero), not
// absolute numbers. TestCatalogueClaims applies it to every entry at seed 1
// in quick mode and BenchmarkExperiments at seed 1 at full size, so each
// claim must hold at both sizes. A nil row marks an entry that makes no claim.
var claims = map[string]func(tb testing.TB, out Outcome){
	"fig5r": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig5RightResult)
		if res.CollidingLaps == 0 {
			tb.Error("the unprotected third-party controller never collided")
		}
		if res.MaxOvershoot <= 0.5 {
			tb.Errorf("max overshoot = %.2f, want the characteristic ≈1m", res.MaxOvershoot)
		}
		if !strings.Contains(out.Text, "third-party") {
			tb.Error("Format missing title")
		}
	},
	"fig5l": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig5LeftResult)
		if res.UnsafeLoops == 0 || res.UnsafeLoops == res.Loops {
			tb.Errorf("want a mix of red and green loops, got %d/%d unsafe", res.UnsafeLoops, res.Loops)
		}
		if res.AvgDeviation >= res.MaxDeviation {
			tb.Errorf("avg deviation %.2f should be below max %.2f", res.AvgDeviation, res.MaxDeviation)
		}
	},
	"fig6": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig6Result)
		if res.Crashed || !res.Reached {
			tb.Errorf("the protected transfer crashed or did not complete: %+v", res)
		}
		if res.Disengagements == 0 || res.Reengagements == 0 {
			tb.Errorf("want both switch directions, got %d/%d", res.Disengagements, res.Reengagements)
		}
	},
	"fig10": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig10Result)
		total := 0.0
		for _, f := range res.Fractions {
			total += f
		}
		if total < 0.999 || total > 1.001 {
			tb.Errorf("region fractions sum to %v", total)
		}
		if res.Fractions[reach.RegionSaferCore] == 0 {
			tb.Error("φsafer region empty in the city workspace")
		}
		if res.Agreement < 0.8 {
			tb.Errorf("analytic-vs-grid agreement = %v, want ≥ 0.8", res.Agreement)
		}
	},
	"fig12a": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig12aResult)
		if len(res.Rows) != 3 {
			tb.Fatalf("rows = %d, want 3", len(res.Rows))
		}
		byMode := map[string]Fig12aRow{}
		for _, r := range res.Rows {
			byMode[r.Mode] = r
		}
		ac, rta, sc := byMode[mission.ProtectACOnly.String()], byMode[mission.ProtectRTA.String()], byMode[mission.ProtectSCOnly.String()]
		// The paper's ordering: AC fastest but collides; RTA in between with
		// no collisions; SC slowest, safe.
		if ac.Collisions == 0 {
			tb.Error("AC-only should collide")
		}
		if rta.Collisions != 0 || sc.Collisions != 0 {
			tb.Errorf("protected configurations collided: rta=%d sc=%d", rta.Collisions, sc.Collisions)
		}
		if !(ac.TourTime <= rta.TourTime && rta.TourTime < sc.TourTime) {
			tb.Errorf("tour-time ordering broken: ac=%v rta=%v sc=%v", ac.TourTime, rta.TourTime, sc.TourTime)
		}
		if rta.Disengagements == 0 {
			tb.Error("RTA tour had no disengagements")
		}
	},
	"fig12b": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig12bResult)
		if res.Crashed {
			tb.Error("RTA-protected surveillance mission crashed")
		}
		if len(res.RecoveryTimes) == 0 {
			tb.Error("no N-point recoveries recorded")
		}
		if res.ACFraction < 0.5 {
			tb.Errorf("AC fraction = %v, want majority", res.ACFraction)
		}
	},
	"fig12b-fleet": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig12bFleetResult)
		// Both sizes fly at least 4 missions of at least 30 s each.
		if res.Missions < 4 {
			tb.Errorf("missions = %d, want ≥ 4", res.Missions)
		}
		if res.Crashes != 0 {
			tb.Errorf("protected sweep crashed %d times", res.Crashes)
		}
		if res.InvariantViolations != 0 {
			tb.Errorf("protected sweep violated φInv %d times", res.InvariantViolations)
		}
		if res.MeanACFraction < 0.5 {
			tb.Errorf("mean AC fraction = %v, want majority", res.MeanACFraction)
		}
		if res.Throughput <= 0 || res.SimTime < time.Duration(res.Missions)*30*time.Second {
			tb.Errorf("throughput %v / sim time %v not aggregated over %d missions", res.Throughput, res.SimTime, res.Missions)
		}
		if !strings.Contains(out.Text, "fleet sweep") {
			tb.Error("Format missing title")
		}
	},
	"fig12c": func(tb testing.TB, out Outcome) {
		res := out.Result.(Fig12cResult)
		if res.Crashed || !res.Landed {
			tb.Errorf("battery safety failed: %+v", res)
		}
		if res.FinalCharge <= 0 {
			tb.Error("battery exhausted")
		}
		if res.EngageTime == 0 {
			tb.Error("lander engage time not recorded")
		}
	},
	"sec5c": func(tb testing.TB, out Outcome) {
		res := out.Result.(Sec5cResult)
		if res.BuggyColliding == 0 {
			tb.Error("buggy RRT* produced no colliding plans")
		}
		if res.CertColliding != 0 {
			tb.Errorf("certified planner produced %d colliding plans", res.CertColliding)
		}
		if res.ClosedCrashed {
			tb.Error("the RTA-protected closed loop with the buggy planner crashed")
		}
	},
	"sec5d": func(tb testing.TB, out Outcome) {
		res := out.Result.(Sec5dResult)
		if len(res.Rows) != 2 {
			tb.Fatalf("rows = %d, want 2", len(res.Rows))
		}
		bestEffort, rtos := res.Rows[0], res.Rows[1]
		if rtos.Crashes != 0 {
			tb.Errorf("RTOS crashes = %d, want 0 (the paper's prediction)", rtos.Crashes)
		}
		if rtos.DroppedFirings != 0 {
			tb.Errorf("RTOS dropped %d firings", rtos.DroppedFirings)
		}
		if bestEffort.DroppedFirings == 0 {
			tb.Error("best-effort run dropped no firings")
		}
	},
	// The Δ/hysteresis sweep reports a trade-off; it claims no ordering.
	"abl-delta": nil,
	"abl-policy": func(tb testing.TB, out Outcome) {
		for _, row := range out.Result.(AblationPolicyResult).Rows {
			if row.Crashed {
				tb.Errorf("policy %s crashed — the framework clamp must keep every policy safe", row.Policy)
			}
		}
	},
	"abl-return": func(tb testing.TB, out Outcome) {
		res := out.Result.(AblationReturnResult)
		if len(res.Rows) != 2 {
			tb.Fatalf("rows = %d, want 2", len(res.Rows))
		}
		two, one := res.Rows[0], res.Rows[1]
		if two.Crashed || one.Crashed {
			tb.Error("an ablation run crashed")
		}
		// The paper's point: one-way Simplex degrades to SC-level performance.
		if !(two.ACFraction > one.ACFraction) {
			tb.Errorf("two-way AC fraction %v should exceed one-way %v", two.ACFraction, one.ACFraction)
		}
		if !(two.Distance > one.Distance) {
			tb.Errorf("two-way distance %v should exceed one-way %v", two.Distance, one.Distance)
		}
	},
	// The registry sweep surveys every registered workload. jitter-storm's
	// scheduling outages crash some of its seeds, as Section V-D predicts
	// for best-effort scheduling, and planner-bug-gauntlet's defective
	// planners violate φInv on some; every other workload flies clean.
	"scenarios": func(tb testing.TB, out Outcome) {
		rep := out.Result.(*fleet.Report)
		for _, res := range rep.Results {
			m := res.Metrics
			if !m.Crashed && m.InvariantViolations == 0 {
				continue
			}
			name, _, _ := strings.Cut(res.Name, "/seed-")
			if name != "jitter-storm" && name != "planner-bug-gauntlet" {
				tb.Errorf("%s: crashed=%v, φInv violations %d; only jitter-storm and planner-bug-gauntlet may",
					res.Name, m.Crashed, m.InvariantViolations)
			}
		}
	},
}

// claimFor returns the claim-table row of a catalogue entry, failing when
// the entry has none.
func claimFor(tb testing.TB, name string) func(testing.TB, Outcome) {
	tb.Helper()
	check, ok := claims[name]
	if !ok {
		tb.Fatalf("catalogue entry %q has no row in the claim table", name)
	}
	return check
}

// TestCatalogueClaims runs every catalogue entry at seed 1 in quick mode and
// holds it to its claim-table row; the table has exactly one row per entry.
func TestCatalogueClaims(t *testing.T) {
	cat := Catalogue()
	names := make(map[string]bool, len(cat))
	for _, e := range cat {
		names[e.Name] = true
	}
	for name := range claims {
		if !names[name] {
			t.Errorf("claim-table row %q names no catalogue entry", name)
		}
	}
	for _, e := range cat {
		t.Run(e.Name, func(t *testing.T) {
			check := claimFor(t, e.Name)
			out, err := e.Run(t.Context(), 1, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			if check != nil {
				check(t, out)
			}
		})
	}
}

// TestFig5lClaimHoldsAcrossSeeds holds fig5l's row at catalogue seeds 1–8:
// the mix of red and green loops is a property of the learned policy, not
// of one lucky seed. fig5l flies one size, so quick mode covers both.
func TestFig5lClaimHoldsAcrossSeeds(t *testing.T) {
	check := claimFor(t, "fig5l")
	for seed := int64(1); seed <= 8; seed++ {
		out, err := fig5Left(t.Context(), seed, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { check(t, out) })
	}
}

// printOnce prints each experiment table a single time even when the bench
// harness loops.
var printOnce sync.Map

// BenchmarkExperiments regenerates every experiment in the catalogue at
// full size with seed 1 — the paper-figure seeds and sizes — printing each
// table once and holding each figure to its claim-table row. ns/op measures
// the cost of regenerating the artifact.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Catalogue() {
		b.Run(e.Name, func(b *testing.B) {
			check := claimFor(b, e.Name)
			for i := 0; i < b.N; i++ {
				out, err := e.Run(b.Context(), 1, false, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, loaded := printOnce.LoadOrStore(e.Name, true); !loaded {
					fmt.Printf("\n%s\n", out.Text)
				}
				if check != nil {
					check(b, out)
				}
			}
		})
	}
}
