package falsify

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// campaignDigestFile pins falsification campaigns end to end: one SHA-256
// of the Result JSON per (registry scenario, strategy) at a fixed seed and a
// small budget. The Result carries every counterexample's full verdict and
// the campaign's best severity, so a change to how candidates are generated,
// simulated, scored or ranked shows up here as a changed line.
const campaignDigestFile = "testdata/campaign_results.digest"

var updateDigest = flag.Bool("update-digest", false, "re-record "+campaignDigestFile)

// Campaign digest knobs: durations are capped as in the scenario registry's
// result digest, and the budget keeps the whole grid within a few seconds.
const (
	campaignDigestCap    = 20 * time.Second
	campaignDigestBudget = 3
)

func campaignDigests(t *testing.T) string {
	var b strings.Builder
	for _, spec := range scenario.All() {
		// Test fixtures and auto-registered finds are not registry scenarios.
		if strings.Contains(spec.Name, "/") {
			continue
		}
		for _, strat := range []string{"random", "guided:4", "schedule:2"} {
			cfg := Config{Scenario: spec.Name, Strategy: strat, Seed: 7, Budget: campaignDigestBudget}
			if spec.Duration > campaignDigestCap {
				horizon := campaignDigestCap
				cfg.Base.Duration = &horizon
			}
			res, err := Campaign(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Name, strat, err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %x\n", spec.Name, strat, sha256.Sum256(raw))
		}
	}
	return b.String()
}

// TestCampaignResultDigest holds every registry scenario's campaign results
// byte-identical to the recorded ones under the random, guided and
// schedule strategies.
func TestCampaignResultDigest(t *testing.T) {
	got := campaignDigests(t)
	if *updateDigest {
		if err := os.WriteFile(campaignDigestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(campaignDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("campaign result digests changed.\ngot:\n%swant:\n%s", got, want)
	}
}
