package scenario_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// resultDigestFile pins every registry scenario's closed-loop results: one
// SHA-256 per (scenario, policy) over the full obs.Metrics and the switch
// log of seeds 1–3. Metrics print through %+v, whose shortest round-trip
// float formatting and sorted map keys make the text exact (CrashPos is
// printed per component: geom.Vec3's String rounds), so any change
// to a float's bits, a time-in-mode counter or a switch shows up here as a
// changed line — including the fields perfbench's verdict digest omits.
const resultDigestFile = "testdata/registry_results.digest"

// digestCap caps mission durations so the whole registry × policy × seed
// grid stays cheap enough for every test run.
const digestCap = 20 * time.Second

// switchLine is one switch as the digest prints it: the field names the
// digest was recorded with, so the pinned text does not depend on the event
// type's field naming.
type switchLine struct {
	Time        time.Duration
	Module      string
	From, To    rta.Mode
	Reason      rta.SwitchReason
	Coordinated bool
}

// switchLines formats a run's ModeSwitch events for the digest.
func switchLines(switches []obs.ModeSwitch) []switchLine {
	var out []switchLine
	for _, sw := range switches {
		out = append(out, switchLine{Time: sw.T, Module: sw.Module, From: sw.From, To: sw.To, Reason: sw.Reason, Coordinated: sw.Coordinated})
	}
	return out
}

// registryPass runs every registry scenario under every policy at seeds 1–3
// once per test binary. It returns the digest text of resultDigestFile and
// the violation ledger of invariantLedgerFile, both from the same runs.
var registryPass = sync.OnceValues(func() (pass registryResults, err error) {
	var digests, ledger strings.Builder
	ledger.WriteString(ledgerHeader)
	for _, spec := range scenario.All() {
		if spec.Duration > digestCap {
			spec.Duration = digestCap
		}
		for _, pol := range rta.PolicyNames() {
			s := spec.With(scenario.Override{Apply: func(s *scenario.Spec) { s.SwitchPolicy = pol }})
			h := sha256.New()
			for seed := int64(1); seed <= 3; seed++ {
				cfg, err := s.Build(seed)
				if err != nil {
					return pass, err
				}
				res, err := sim.Run(cfg)
				if err != nil {
					return pass, fmt.Errorf("%s %s seed %d: %w", spec.Name, pol, seed, err)
				}
				m, p := res.Metrics, res.Metrics.CrashPos
				fmt.Fprintf(h, "seed=%d crash=%v,%v,%v %+v\n%+v\n", seed, p.X, p.Y, p.Z, m, switchLines(res.Switches))
				if m.InvariantViolations > 0 {
					fmt.Fprintf(&ledger, "%s %s %d %d\n", spec.Name, pol, seed, m.InvariantViolations)
				}
			}
			fmt.Fprintf(&digests, "%s %s %x\n", spec.Name, pol, h.Sum(nil))
		}
	}
	return registryResults{digests: digests.String(), ledger: ledger.String()}, nil
})

// registryResults is what registryPass records.
type registryResults struct {
	digests, ledger string
}

// invariantLedgerFile lists every registry cell (scenario, policy, seed, in
// the digest's grid) whose run reports φInv violations, with the count.
// Theorem 3.1 says the list should be empty; each line is a known defect. A
// cell that starts violating fails TestInvariantLedger, and so does a fix,
// until its commit removes the cell's line: the ledger may only shrink.
const invariantLedgerFile = "testdata/invariant_ledger.golden"

// ledgerHeader opens the ledger file.
const ledgerHeader = "# scenario policy seed φInv-violations (registry × policy × seeds 1–3, 20 s cap)\n"

// TestRegistryResultDigest holds every registry scenario's results
// bit-identical to the recorded ones under every switching policy: hot-path
// optimisations of the executor, mission nodes, planners and metrics must
// not change a single outcome.
func TestRegistryResultDigest(t *testing.T) {
	want, err := os.ReadFile(resultDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := registryPass()
	if err != nil {
		t.Fatal(err)
	}
	if got := pass.digests; got != string(want) {
		t.Fatalf("registry result digests changed.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestInvariantLedger holds the registry's φInv violations to the ledger:
// exactly the listed cells violate, each with its listed count.
func TestInvariantLedger(t *testing.T) {
	want, err := os.ReadFile(invariantLedgerFile)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := registryPass()
	if err != nil {
		t.Fatal(err)
	}
	if got := pass.ledger; got != string(want) {
		t.Fatalf("registry φInv violations differ from %s: a new or changed line is a regression; "+
			"a fixed cell's line goes in the fix's commit.\ngot:\n%swant:\n%s", invariantLedgerFile, got, want)
	}
}
