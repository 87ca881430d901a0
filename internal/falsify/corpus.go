package falsify

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// CorpusEntry is the on-disk form of a counterexample — one JSON file per
// fingerprint under testdata/falsified/. The corpus is the growing
// regression suite the paper's one-shot evaluation becomes: a test replays
// every entry and asserts it still falsifies (same category) or is
// explicitly retired with a reason.
type CorpusEntry struct {
	Counterexample
	// Found is a free-form provenance note ("PR 8 seeding campaign, ...").
	Found string `json:"found,omitempty"`
	// ClampStorm pins the threshold a clamp-storm entry was filed under, so
	// replays qualify it against the same bar; zero means the default.
	ClampStorm int `json:"clamp_storm,omitempty"`
	// Retired marks an entry that intentionally no longer reproduces (the
	// defect it witnessed was fixed); RetiredReason documents why.
	Retired       bool   `json:"retired,omitempty"`
	RetiredReason string `json:"retired_reason,omitempty"`
}

// CorpusFile returns the entry's file name: "<fingerprint>.json".
func (e CorpusEntry) CorpusFile() string { return e.Fingerprint + ".json" }

// WriteCorpus persists entries into dir (created if missing), one file per
// fingerprint, and returns the paths written. Existing files are
// overwritten: the fingerprint IS the identity, so rewriting is idempotent.
func WriteCorpus(dir string, entries []CorpusEntry) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("falsify: corpus dir: %w", err)
	}
	paths := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Fingerprint == "" {
			return paths, errors.New("falsify: corpus entry without fingerprint")
		}
		raw, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return paths, err
		}
		path := filepath.Join(dir, e.CorpusFile())
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return paths, fmt.Errorf("falsify: corpus write: %w", err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// LoadCorpus reads every *.json entry under dir, sorted by file name (i.e.
// by fingerprint), so corpus iteration order is stable. It refuses what
// WriteCorpus would not write: an entry without a fingerprint, or one in a
// file not named after it. A missing directory is an empty corpus, not an
// error.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	slices.Sort(names)
	var out []CorpusEntry
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			return out, err
		}
		var e CorpusEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return out, fmt.Errorf("falsify: corpus %s: %w", filepath.Base(name), err)
		}
		if e.Fingerprint == "" {
			return out, fmt.Errorf("falsify: corpus %s: entry without fingerprint", filepath.Base(name))
		}
		if want := e.CorpusFile(); filepath.Base(name) != want {
			return out, fmt.Errorf("falsify: corpus %s: fingerprint says it should be named %s", filepath.Base(name), want)
		}
		out = append(out, e)
	}
	return out, nil
}

// Replay re-executes the entry unless it is retired. A retired entry with a
// reason is skipped — it is documentation of a fixed defect, not an
// assertion — and returns skipped=true with a zero Verdict. A retired entry
// WITHOUT a reason is rejected: retirement must document why the witness no
// longer reproduces, or the corpus silently rots. Live entries delegate to
// the counterexample's Replay (shadowed here so corpus consumers get the
// retirement semantics by default).
func (e CorpusEntry) Replay(ctx context.Context) (v Verdict, skipped bool, err error) {
	if e.Retired {
		if strings.TrimSpace(e.RetiredReason) == "" {
			return Verdict{}, false, fmt.Errorf("falsify: corpus entry %s is retired without a reason — document the fix it witnessed or un-retire it", e.Fingerprint)
		}
		return Verdict{}, true, nil
	}
	v, err = e.Counterexample.Replay(ctx)
	return v, false, err
}

// Rebuild resolves the counterexample back into the concrete Spec it was
// found on: registry base + spec delta.
func (c Counterexample) Rebuild() (scenario.Spec, error) {
	spec, err := scenario.Resolve(c.Scenario, c.Candidate.Params)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("falsify: counterexample %s: %w", c.Fingerprint, err)
	}
	return spec, nil
}

// Replay re-executes the counterexample and returns the fresh verdict. It
// first recomputes the canonical fingerprint and refuses to replay on a
// mismatch — drift in spec semantics (a changed default, a reshaped
// workspace) must surface as "regenerate or retire this entry", never as a
// silently different run. Every counterexample replays as one closed-loop
// run; a schedule counterexample's choice vector drives RunConfig.Order, so
// its exact interleaving is re-executed.
func (c Counterexample) Replay(ctx context.Context) (Verdict, error) {
	spec, err := c.Rebuild()
	if err != nil {
		return Verdict{}, err
	}
	specFP, err := spec.Fingerprint(c.Candidate.Seed)
	if err != nil {
		return Verdict{}, err
	}
	want := specFP
	if len(c.Schedule) > 0 {
		want = scheduleFingerprint(specFP, c.Schedule)
	}
	if want != c.Fingerprint {
		return Verdict{}, fmt.Errorf("falsify: counterexample %s: canonical fingerprint drifted to %s — the spec semantics changed; regenerate the entry or retire it",
			c.Fingerprint, want)
	}
	rc, err := spec.Build(c.Candidate.Seed)
	if err != nil {
		return Verdict{}, err
	}
	rc.Context = ctx
	rc.Label = c.Name
	if len(c.Schedule) > 0 {
		rc.Order = (&schedule{prefix: c.Schedule}).order
	}
	res, err := sim.Run(rc)
	if err != nil {
		return Verdict{}, err
	}
	return verdictOf(res.Metrics), nil
}

// StillFalsifies reports whether a replayed verdict still qualifies under
// the entry's own category and threshold — the corpus regression check.
func (e CorpusEntry) StillFalsifies(v Verdict) bool {
	threshold := e.ClampStorm
	if threshold == 0 {
		threshold = DefaultClampStorm
	}
	got := v.Category(threshold)
	if e.Category == CategoryClampStorm {
		// A clamp-storm entry that now crashes outright got worse, not
		// better; any non-empty category keeps it falsifying.
		return got != ""
	}
	return got == e.Category
}

// Entries converts a campaign result into corpus entries carrying the
// campaign's provenance note and clamp-storm threshold.
func (r *Result) Entries(note string, clampStorm int) []CorpusEntry {
	out := make([]CorpusEntry, 0, len(r.Counterexamples))
	for _, ce := range r.Counterexamples {
		out = append(out, CorpusEntry{Counterexample: ce, Found: note, ClampStorm: clampStorm})
	}
	return out
}

// String renders a one-line human summary of a counterexample.
func (c Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s severity=%.1f scenario=%s seed=%d fp=%s", c.Category, c.Severity, c.Scenario, c.Candidate.Seed, c.Fingerprint)
	if c.Policy != "" {
		fmt.Fprintf(&b, " policy=%s", c.Policy)
	}
	if len(c.Schedule) > 0 {
		fmt.Fprintf(&b, " schedule=%v", c.Schedule)
	}
	return b.String()
}
