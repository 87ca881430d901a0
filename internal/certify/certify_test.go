package certify

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// plantedScenario registers (once) a deliberately unsafe cell: scheduling
// jitter on every node, a tight planning margin and periodic fault windows.
// Roughly 40% of seeds crash, so the cell is decisively refutable against a
// low threshold within a couple of batches.
func plantedScenario(t *testing.T) string {
	t.Helper()
	fixturesOnce.Do(registerFixtures)
	if fixturesErr != nil {
		t.Fatalf("register fixtures: %v", fixturesErr)
	}
	return "certify-test/planted"
}

// safeScenario registers (once) a benign cell: the same tour with default
// margins and no fault or jitter profile. No seed crashes, so the cell
// certifies against a generous threshold in the first batch.
func safeScenario(t *testing.T) string {
	t.Helper()
	fixturesOnce.Do(registerFixtures)
	if fixturesErr != nil {
		t.Fatalf("register fixtures: %v", fixturesErr)
	}
	return "certify-test/safe"
}

var (
	fixturesOnce sync.Once
	fixturesErr  error
)

func registerFixtures() {
	tour := []geom.Vec3{geom.V(3, 3, 2), geom.V(46, 3, 2.5), geom.V(46, 46, 2)}
	fixturesErr = errors.Join(
		scenario.Register(scenario.Spec{
			Name:        "certify-test/planted",
			Description: "test fixture: jitter on all nodes at a tight margin plus periodic faults",
			Targets:     tour,
			PlanMargin:  0.45,
			JitterProb:  0.05,
			Faults: scenario.FaultProfile{
				First: 500 * time.Millisecond,
				Every: 2 * time.Second,
				Len:   1500 * time.Millisecond,
				Dir:   geom.V(1, 0.4, 0),
			},
			Duration: 4 * time.Second,
		}),
		scenario.Register(scenario.Spec{
			Name:        "certify-test/safe",
			Description: "test fixture: the same tour, unstressed",
			Targets:     tour,
			Duration:    2 * time.Second,
		}),
	)
}

// certifyRecorder captures the CertifyProgress stream for assertions.
type certifyRecorder struct {
	progress []obs.CertifyProgress
}

func (r *certifyRecorder) Interests() obs.KindSet { return obs.Kinds(obs.KindCertifyProgress) }

func (r *certifyRecorder) OnEvent(ev obs.Event) {
	if e, ok := ev.(obs.CertifyProgress); ok {
		r.progress = append(r.progress, e)
	}
}

// The planted high-crash-rate cell must be refuted against a low threshold
// within a small seed budget, in plain mode, with a consistent event stream.
func TestPlantedCellRefutedPlain(t *testing.T) {
	rec := &certifyRecorder{}
	res, err := Certify(context.Background(), Config{
		Scenario:  plantedScenario(t),
		Threshold: 0.05,
		MaxSeeds:  128,
		Batch:     16,
		Observers: []obs.Observer{rec},
	})
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if res.Verdict != VerdictRefuted {
		t.Fatalf("verdict = %q, want refuted (estimate %v in [%v, %v] after %d seeds)",
			res.Verdict, res.Estimate, res.Lo, res.Hi, res.Seeds)
	}
	if res.Seeds >= res.MaxSeeds {
		t.Fatalf("refutation consumed the whole budget (%d seeds)", res.Seeds)
	}
	if res.Lo <= res.Threshold {
		t.Fatalf("refuted with Lo %v <= threshold %v", res.Lo, res.Threshold)
	}
	if res.Mode != "plain" || res.Method != "clopper-pearson" {
		t.Fatalf("mode/method = %q/%q, want plain/clopper-pearson", res.Mode, res.Method)
	}
	if res.Policy != "soter-fig9" {
		t.Fatalf("policy = %q, want the default soter-fig9", res.Policy)
	}
	if len(rec.progress) != res.Seeds/res.Batch {
		t.Fatalf("%d progress events for %d seeds at batch %d", len(rec.progress), res.Seeds, res.Batch)
	}
	last := rec.progress[len(rec.progress)-1]
	if last.Verdict != string(VerdictRefuted) || last.Seeds != res.Seeds || last.Crashes != res.Crashes || last.Violations != res.Violations {
		t.Fatalf("terminal progress %+v does not match result %+v", last, res)
	}
	for i, ev := range rec.progress {
		if ev.Seeds != (i+1)*res.Batch || ev.Threshold != res.Threshold {
			t.Fatalf("progress %d malformed: %+v", i, ev)
		}
		if i < len(rec.progress)-1 && ev.Verdict != "" {
			t.Fatalf("non-terminal progress %d carries verdict %q", i, ev.Verdict)
		}
	}
}

// The same planted cell must be refuted by the importance-sampling mode: a
// sporadic fault model with a boosted sampler, the reweighted estimator and
// the empirical-Bernstein interval.
func TestPlantedCellRefutedImportance(t *testing.T) {
	res, err := Certify(context.Background(), Config{
		Scenario:        plantedScenario(t),
		Threshold:       0.02,
		Confidence:      0.90,
		MaxSeeds:        320,
		Batch:           64,
		FaultActivation: 0.8,
		Boost:           1.05,
	})
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if res.Mode != "importance" || res.Method != "empirical-bernstein" {
		t.Fatalf("mode/method = %q/%q, want importance/empirical-bernstein", res.Mode, res.Method)
	}
	if res.Verdict != VerdictRefuted {
		t.Fatalf("verdict = %q, want refuted (estimate %v in [%v, %v] after %d seeds)",
			res.Verdict, res.Estimate, res.Lo, res.Hi, res.Seeds)
	}
	if res.Seeds >= res.MaxSeeds {
		t.Fatalf("refutation consumed the whole budget (%d seeds)", res.Seeds)
	}
	if res.FaultActivation != 0.8 || res.Boost != 1.05 {
		t.Fatalf("fault model not echoed: activation %v boost %v", res.FaultActivation, res.Boost)
	}
}

// A cell whose true rate is far from the threshold must stop well before the
// seed budget — the early-stopping correctness test.
func TestSafeCellCertifiedEarly(t *testing.T) {
	res, err := Certify(context.Background(), Config{
		Scenario:   safeScenario(t),
		Threshold:  0.5,
		Confidence: 0.90,
		MaxSeeds:   64,
		Batch:      8,
	})
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if res.Verdict != VerdictCertified {
		t.Fatalf("verdict = %q, want certified (estimate %v in [%v, %v] after %d seeds)",
			res.Verdict, res.Estimate, res.Lo, res.Hi, res.Seeds)
	}
	if res.Seeds != 8 {
		t.Fatalf("certified after %d seeds, want the first batch of 8", res.Seeds)
	}
	if res.Crashes != 0 || res.Violations != 0 || res.Estimate != 0 || res.Lo != 0 {
		t.Fatalf("safe cell failed: %+v", res)
	}
	if res.Hi >= res.Threshold {
		t.Fatalf("certified with Hi %v >= threshold %v", res.Hi, res.Threshold)
	}
}

// A run that violates φInv fails like one that crashes: the planner-bug
// gauntlet never crashes in its first 8 s, yet most of its seeds violate
// Theorem 3.1 (the planner module's (P3) gap), so the cell is refuted and
// the estimate counts the violating runs.
func TestViolatingCellRefuted(t *testing.T) {
	horizon := 8 * time.Second
	res, err := Certify(context.Background(), Config{
		Scenario:  "planner-bug-gauntlet",
		Overrides: scenario.Delta{Duration: &horizon},
		Threshold: 0.1,
		MaxSeeds:  8,
		Batch:     8,
	})
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if res.Verdict != VerdictRefuted || res.Crashes != 0 || res.Violations == 0 {
		t.Fatalf("want a crash-free cell refuted on its violations, got %+v", res)
	}
	if want := float64(res.Violations) / float64(res.Seeds); res.Estimate != want {
		t.Fatalf("estimate %v, want %d violating of %d seeds = %v", res.Estimate, res.Violations, res.Seeds, want)
	}
}

// cancelAfterFirstBatch cancels the campaign context on the first progress
// event, so the second batch is discarded whole.
type cancelAfterFirstBatch struct {
	cancel context.CancelFunc
}

func (c *cancelAfterFirstBatch) Interests() obs.KindSet { return obs.Kinds(obs.KindCertifyProgress) }
func (c *cancelAfterFirstBatch) OnEvent(obs.Event)      { c.cancel() }

// Mid-campaign cancellation must return a consistent partial Result marked
// inconclusive: exactly the accounted batches, with the same estimator state
// an uncancelled campaign limited to that budget reports.
func TestCancellationPartialResult(t *testing.T) {
	base := Config{
		Scenario:  plantedScenario(t),
		Threshold: 0.4, // straddled by the planted cell's interval for many batches
		MaxSeeds:  4096,
		Batch:     16,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cfg.Observers = []obs.Observer{&cancelAfterFirstBatch{cancel: cancel}}
	res, err := Certify(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation returned no partial result")
	}
	if res.Verdict != VerdictInconclusive {
		t.Fatalf("cancelled verdict = %q, want inconclusive-at-budget", res.Verdict)
	}
	if res.Seeds != base.Batch {
		t.Fatalf("cancelled campaign accounted %d seeds, want exactly the first batch of %d", res.Seeds, base.Batch)
	}
	// The partial state must equal an uncancelled campaign truncated at the
	// same budget.
	ref := base
	ref.MaxSeeds = base.Batch
	want, err := Certify(context.Background(), ref)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if res.Crashes != want.Crashes || res.Estimate != want.Estimate ||
		res.Lo != want.Lo || res.Hi != want.Hi || res.Errored != want.Errored {
		t.Fatalf("partial result diverged from truncated reference:\n  cancelled: %+v\n  reference: %+v", res, want)
	}
}

func TestConfigValidation(t *testing.T) {
	planted := plantedScenario(t)
	safe := safeScenario(t)
	negative := -5 * time.Second
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no scenario", Config{Threshold: 0.1}, "no scenario"},
		{"unknown scenario", Config{Scenario: "nope", Threshold: 0.1}, "unknown scenario"},
		{"zero threshold", Config{Scenario: planted}, "threshold"},
		{"threshold one", Config{Scenario: planted, Threshold: 1}, "threshold"},
		{"bad confidence", Config{Scenario: planted, Threshold: 0.1, Confidence: 1.5}, "confidence"},
		{"negative budget", Config{Scenario: planted, Threshold: 0.1, MaxSeeds: -1}, "max seeds"},
		{"negative batch", Config{Scenario: planted, Threshold: 0.1, Batch: -1}, "batch"},
		{"bad activation", Config{Scenario: planted, Threshold: 0.1, FaultActivation: 1.5}, "fault activation"},
		{"boost below one", Config{Scenario: planted, Threshold: 0.1, Boost: 0.5}, "boost"},
		{"boost without sporadic model", Config{Scenario: planted, Threshold: 0.1, Boost: 2}, "sporadic"},
		{"boost without faults", Config{Scenario: safe, Threshold: 0.1, FaultActivation: 0.5, Boost: 1.5}, "fault profile"},
		{"boost breaks continuity", Config{Scenario: planted, Threshold: 0.1, FaultActivation: 0.5, Boost: 2}, "below 1"},
		{"bad policy", Config{Scenario: planted, Threshold: 0.1, Overrides: overridePolicy("nope")}, "policy"},
		{"negative horizon", Config{Scenario: planted, Threshold: 0.1, Overrides: scenario.Delta{Duration: &negative}}, "duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := (Config{Scenario: planted, Threshold: 0.1}).Validate(); err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
}

// TestMatrix sweeps a 2×2 grid with a tiny budget and checks ordering,
// tallies and the error-cell path (importance sampling over the fault-free
// fixture cannot run, but must not abort the sweep).
func TestMatrix(t *testing.T) {
	planted := plantedScenario(t)
	safe := safeScenario(t)
	mr, err := Matrix(context.Background(), MatrixConfig{
		Scenarios: []string{safe, planted},
		Policies:  []string{"soter-fig9", "always-sc"},
		Cell: Config{
			Threshold:  0.5,
			Confidence: 0.90,
			MaxSeeds:   8,
			Batch:      8,
		},
	})
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	if len(mr.Cells) != 4 {
		t.Fatalf("matrix has %d cells, want 4", len(mr.Cells))
	}
	wantOrder := []struct{ sc, pol string }{
		{safe, "soter-fig9"}, {safe, "always-sc"},
		{planted, "soter-fig9"}, {planted, "always-sc"},
	}
	for i, w := range wantOrder {
		if mr.Cells[i].Scenario != w.sc || mr.Cells[i].Policy != w.pol {
			t.Fatalf("cell %d is (%s, %s), want (%s, %s)", i, mr.Cells[i].Scenario, mr.Cells[i].Policy, w.sc, w.pol)
		}
	}
	if got := mr.Certified + mr.Refuted + mr.Inconclusive + mr.Errored; got != len(mr.Cells) {
		t.Fatalf("tallies sum to %d over %d cells", got, len(mr.Cells))
	}
	if mr.Certified < 2 {
		t.Fatalf("expected at least the two safe cells certified, got %d (cells %+v)", mr.Certified, mr.Cells)
	}

	// Importance sampling over the fault-free fixture: an error cell, not an
	// aborted sweep.
	mr, err = Matrix(context.Background(), MatrixConfig{
		Scenarios: []string{safe},
		Policies:  []string{"soter-fig9"},
		Cell: Config{
			Threshold:       0.5,
			MaxSeeds:        8,
			Batch:           8,
			FaultActivation: 0.5,
			Boost:           1.5,
		},
	})
	if err != nil {
		t.Fatalf("Matrix with error cell: %v", err)
	}
	if len(mr.Cells) != 1 || mr.Cells[0].Verdict != VerdictError || mr.Errored != 1 {
		t.Fatalf("error cell not recorded: %+v", mr)
	}
	if mr.Cells[0].Err == "" {
		t.Fatal("error cell carries no message")
	}
}

// overridePolicy builds the Overrides delta selecting a policy.
func overridePolicy(pol string) scenario.Delta {
	return scenario.Delta{Policy: pol}
}
