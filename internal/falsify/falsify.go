// Package falsify is the adversarial counterexample search engine of the
// reproduction — the paper's Section V evaluation turned from a one-shot
// experiment into a subsystem. A campaign searches the
// scenario.Spec × rta.Policy × seed space around a named base scenario for
// executions that break the RTA story: crashes, φInv violations, and
// clamp-storms (configurations that survive on the framework clamp alone).
//
// The search space is scenario.Delta, the declarative spec edit every
// external surface shares — fault/planner-bug/jitter profiles,
// Δ/hysteresis, workspace family, switching policy — filtered for validity
// through Spec.Validate; the mutation operators live here. The strategies
// are a fixed table, like rta's switching policies: "random" (seeded
// uniform sampling), "guided" (hill-climb on the verdict's severity
// objective), "schedule" (bounded-asynchrony enumeration of node-firing
// interleavings of the base configuration, each one an ordinary closed-loop
// run). A caller names one in Config.Strategy; there is no plug-in
// interface, and the engine the strategies drive is unexported.
//
// Campaigns are deterministic: given (strategy, seed, budget) the ranked
// counterexample list is byte-identical at any worker count, because
// candidates are generated single-threaded from one seeded RNG, evaluated
// through fleet.Run (index-ordered results), and accounted in index order.
// Every Counterexample carries the exact canonical spec delta, seed, policy
// and fingerprint needed to replay it; found ones auto-register as
// "falsified/<hash>" regression scenarios and can be persisted to a JSON
// corpus (testdata/falsified/) that tests replay.
package falsify

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Default campaign knobs.
const (
	// DefaultBudget is the default execution budget of a campaign.
	DefaultBudget = 64
	// DefaultClampStorm is the clamp count at which a run qualifies as a
	// clamp-storm counterexample. Negative Config.ClampStorm disables the
	// category.
	DefaultClampStorm = 12
	// DefaultMaxCounterexamples bounds the ranked result list.
	DefaultMaxCounterexamples = 32
)

// Config configures a falsification campaign. The campaign's base cell is
// (Scenario, Base), resolved through scenario.Resolve: every knob of the
// base, the mission horizon included, lives in Base and is refused there
// when out of range.
type Config struct {
	// Scenario names the base scenario (scenario registry) the search
	// explores around. Required.
	Scenario string
	// Strategy is a strategy spec ("random", "guided:8", "schedule:16");
	// empty selects the default random strategy.
	Strategy string
	// Seed seeds the campaign RNG — candidate mutations and run seeds all
	// derive from it. Zero defaults to 1.
	Seed int64
	// Budget bounds the number of candidate executions; zero defaults to
	// DefaultBudget.
	Budget int
	// Workers bounds concurrent candidate evaluations; zero defaults to
	// GOMAXPROCS. Worker count never changes campaign results.
	Workers int
	// Base is a spec delta applied to the base scenario before searching —
	// the campaign-wide pin ("always under this fault profile"). Its
	// Duration sets the per-candidate mission horizon.
	Base scenario.Delta
	// Policies is the pool the policy mutation draws from; nil defaults to
	// every registered policy name.
	Policies []string
	// ClampStorm is the clamp-count threshold for the clamp-storm category;
	// zero defaults to DefaultClampStorm, negative disables the category.
	ClampStorm int
	// MaxCounterexamples bounds the ranked list; zero defaults to
	// DefaultMaxCounterexamples.
	MaxCounterexamples int
	// AutoRegister registers found counterexamples as "falsified/<hash>"
	// regression scenarios in the scenario registry.
	AutoRegister bool
	// Observers receive the campaign's progress stream (CampaignProgress
	// after every evaluation batch, CounterexampleFound on every distinct
	// find) on the campaign goroutine.
	Observers []obs.Observer
}

// Candidate is one point of the search space: a fully-merged spec delta
// (campaign base ⊕ mutations) plus the run seed.
type Candidate struct {
	Params scenario.Delta `json:"params,omitzero"`
	Seed   int64          `json:"seed"`
}

// outcome is the evaluated verdict of one candidate.
type outcome struct {
	Candidate   Candidate
	Verdict     Verdict
	Severity    float64
	Fingerprint string
	// Category is non-empty when the candidate qualified as a counterexample.
	Category string
	// Err marks a candidate that could not be evaluated (invalid spec after
	// mutation, build failure). Such candidates consume budget but never
	// qualify.
	Err error
	// Schedule is the choice vector of a schedule-strategy run (nil for
	// parameter-space candidates); ScheduleSeed is the random-interleaving
	// seed it was sampled from.
	Schedule     []int
	ScheduleSeed int64
}

// Counterexample is one distinct falsifying execution, self-contained for
// replay: base scenario name + spec delta + seed rebuild the exact Spec,
// and Fingerprint pins its canonical identity (drift in the spec semantics
// is detected, not silently replayed). Schedule counterexamples additionally
// carry the choice vector of their interleaving.
type Counterexample struct {
	// Scenario is the base scenario searched around.
	Scenario string `json:"scenario"`
	// Candidate rebuilds the concrete spec: Apply(base) + seed.
	Candidate Candidate `json:"candidate"`
	// Policy is the canonical switching-policy spec of the rebuilt spec.
	Policy string `json:"policy"`
	// Strategy is the canonical strategy spec that found it.
	Strategy string `json:"strategy"`
	// Fingerprint is the canonical replay fingerprint: the spec fingerprint
	// for parameter-space finds, a (spec, choices) hash for schedule finds.
	Fingerprint string `json:"fingerprint"`
	// Name is the auto-registered regression scenario name
	// ("falsified/<hash>"); empty for schedule counterexamples, whose
	// interleaving is not part of any scenario spec.
	Name string `json:"name,omitempty"`
	// Category classifies the violation: crash | invariant | clamp-storm.
	Category string `json:"category"`
	// Severity is the oracle's score for the run.
	Severity float64 `json:"severity"`
	// Verdict is the full oracle verdict the counterexample was filed with.
	Verdict Verdict `json:"verdict"`
	// Schedule is the choice vector (schedule strategy only): entry i picks
	// the permutation of the nodes firing at the run's i-th instant, so it
	// replays the exact interleaving. ScheduleSeed records the random
	// interleaving seed it was sampled from (provenance only).
	Schedule     []int `json:"schedule,omitempty"`
	ScheduleSeed int64 `json:"schedule_seed,omitempty"`
}

// Result is a campaign's deterministic summary: given (strategy, seed,
// budget) two runs produce byte-identical JSON at any worker count.
type Result struct {
	Scenario string `json:"scenario"`
	// Strategy is the canonical strategy spec that ran.
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	Budget   int    `json:"budget"`
	// Executions counts candidate runs actually performed.
	Executions int `json:"executions"`
	// Errored counts candidates that could not be evaluated.
	Errored int `json:"errored,omitempty"`
	// BestSeverity is the highest severity observed across all executions.
	BestSeverity float64 `json:"best_severity"`
	// Counterexamples is the ranked list: severity descending, fingerprint
	// ascending on ties, bounded by Config.MaxCounterexamples.
	Counterexamples []Counterexample `json:"counterexamples"`
}

// Campaign runs one falsification campaign to completion (or cancellation:
// the partial Result accumulated so far is returned with the context's
// error).
func Campaign(ctx context.Context, cfg Config) (*Result, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	err = e.strategy.search(ctx, e)
	return e.result(), err
}

// Validate checks the campaign configuration without running anything — the
// submit-time gate of the serving layer.
func (c Config) Validate() error {
	_, err := newEngine(c)
	return err
}

// engine is the shared campaign state strategies drive: it owns the resolved
// base spec, the campaign RNG, the budget, the deduplicated counterexample
// list and the progress stream. Strategies call randomCandidate/mutate to
// move through the space and evaluate to spend budget; the engine accounts
// results single-threaded in candidate order, which is what makes campaigns
// worker-count-independent.
type engine struct {
	cfg        Config
	base       scenario.Spec
	baseParams scenario.Delta
	baseFP     string
	strategy   strategy
	rng        *rand.Rand
	margin     float64
	observers  obs.Multi

	executions int
	errored    int
	best       float64
	seen       map[string]bool
	found      []Counterexample
}

// newEngine resolves and validates a campaign configuration.
func newEngine(cfg Config) (*engine, error) {
	base, err := scenario.Resolve(cfg.Scenario, cfg.Base)
	if err != nil {
		return nil, fmt.Errorf("falsify: base: %w", err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("falsify: budget %d must be positive", cfg.Budget)
	}
	if cfg.ClampStorm == 0 {
		cfg.ClampStorm = DefaultClampStorm
	}
	if cfg.MaxCounterexamples == 0 {
		cfg.MaxCounterexamples = DefaultMaxCounterexamples
	}
	baseFP, err := base.Fingerprint(cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = rta.PolicyNames()
	}
	for _, pol := range cfg.Policies {
		if _, err := rta.CanonicalPolicySpec(pol); err != nil {
			return nil, fmt.Errorf("falsify: policy pool: %w", err)
		}
	}
	strat, err := parseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	// The stack's safety margin scales the near-miss severity term; the
	// compiled config is authoritative (PlanMargin etc. resolved).
	stack, err := base.StackConfig(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &engine{
		cfg:        cfg,
		base:       base,
		baseParams: cfg.Base,
		baseFP:     baseFP,
		strategy:   strat,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		margin:     stack.Margin,
		observers:  obs.Multi(cfg.Observers),
		seen:       make(map[string]bool),
	}, nil
}

// remaining returns the unspent execution budget.
func (e *engine) remaining() int { return e.cfg.Budget - e.executions }

// newSeed draws a fresh run seed from the campaign RNG.
func (e *engine) newSeed() int64 { return 1 + e.rng.Int63n(1_000_000_000) }

// candidateValid reports whether the candidate's spec passes the scenario
// layer's own consistency rules — the validity filter of the search space.
func (e *engine) candidateValid(p scenario.Delta) bool {
	spec, err := p.Apply(e.base)
	if err != nil {
		return false
	}
	return spec.Validate() == nil
}

// applyMutator applies operator m to a copy of p.
func (e *engine) applyMutator(p scenario.Delta, m mutator) scenario.Delta {
	out := p
	m.apply(&out, e.cfg.Policies, e.rng)
	return out
}

// mutate returns p with one random mutation operator applied, retrying
// operators whose result the scenario layer rejects; after a bounded number
// of invalid draws it returns p unchanged (the RNG advances either way).
func (e *engine) mutate(p scenario.Delta) scenario.Delta {
	for try := 0; try < 8; try++ {
		m := mutators[e.rng.Intn(len(mutators))]
		if m.ok != nil && !m.ok(e.base) {
			continue
		}
		if out := e.applyMutator(p, m); e.candidateValid(out) {
			return out
		}
	}
	return p
}

// randomCandidate draws a uniform point of the search space: the campaign
// base with 1–3 mutation operators applied and a fresh seed, filtered for
// validity.
func (e *engine) randomCandidate() Candidate {
	for try := 0; try < 8; try++ {
		p := e.baseParams
		for n := 1 + e.rng.Intn(3); n > 0; n-- {
			m := mutators[e.rng.Intn(len(mutators))]
			if m.ok != nil && !m.ok(e.base) {
				continue
			}
			p = e.applyMutator(p, m)
		}
		if e.candidateValid(p) {
			return Candidate{Params: p, Seed: e.newSeed()}
		}
	}
	return Candidate{Params: e.baseParams, Seed: e.newSeed()}
}

// evaluate runs a batch of candidates on the worker pool and accounts the
// outcomes: budget, severity high-water mark, counterexample dedup and
// registration, progress events. The batch is truncated to the remaining
// budget; the returned slice is index-aligned with the (truncated) batch.
// Cancellation returns ctx's error with nothing accounted.
func (e *engine) evaluate(ctx context.Context, batch []Candidate) ([]outcome, error) {
	if rem := e.remaining(); len(batch) > rem {
		batch = batch[:rem]
	}
	if len(batch) == 0 {
		return nil, nil
	}
	outs := make([]outcome, len(batch))
	missions := make([]fleet.Mission, len(batch))
	for i, cand := range batch {
		outs[i].Candidate = cand
		missions[i] = e.mission(&outs[i])
	}
	rep := fleet.Run(ctx, missions, fleet.Options{Workers: e.cfg.Workers})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, res := range rep.Results {
		out := &outs[i]
		if out.Err == nil {
			e.score(out, res.Metrics, res.Err)
		}
		e.account(out)
	}
	e.emitProgress()
	return outs, nil
}

// score derives an evaluated run's verdict from its metrics; a run error
// keeps the verdict from qualifying.
func (e *engine) score(out *outcome, m sim.Metrics, runErr error) {
	out.Verdict = verdictOf(m)
	if runErr != nil {
		out.Verdict.Err = runErr.Error()
		return
	}
	out.Severity = severity(out.Verdict, e.margin)
	out.Category = out.Verdict.Category(e.cfg.ClampStorm)
}

// mission compiles a candidate into a keyless fleet mission. Candidates do
// not go through the result store: no measured workload shows them recurring
// across jobs, and every fill would cost a store write. A candidate that cannot be evaluated — an invalid spec after mutation, a
// build failure — records the reason in out.Err; the Build closure runs on a
// fleet worker and writes only its own outcome.
func (e *engine) mission(out *outcome) fleet.Mission {
	cand := out.Candidate
	m := fleet.Mission{Name: e.cfg.Scenario, Seed: cand.Seed}
	spec, err := cand.Params.Apply(e.base)
	if err == nil {
		err = spec.Validate()
	}
	if err == nil {
		out.Fingerprint, err = spec.Fingerprint(cand.Seed)
	}
	if err != nil {
		out.Err = err
		m.Build = func() (sim.RunConfig, error) { return sim.RunConfig{}, err }
		return m
	}
	m.Build = func() (sim.RunConfig, error) {
		rc, err := spec.Build(cand.Seed)
		out.Err = err
		return rc, err
	}
	return m
}

// account folds one outcome into the campaign state, in candidate order.
// Parameter-space finds are named (and optionally registered) as
// "falsified/<hash>" scenarios; schedule finds carry their choice vector
// instead.
func (e *engine) account(out *outcome) {
	e.executions++
	if out.Err != nil || out.Verdict.Err != "" {
		e.errored++
		return
	}
	if out.Severity > e.best {
		e.best = out.Severity
	}
	if out.Category == "" || e.seen[out.Fingerprint] {
		return
	}
	e.seen[out.Fingerprint] = true
	ce := Counterexample{
		Scenario:     e.cfg.Scenario,
		Candidate:    out.Candidate,
		Strategy:     e.strategy.name,
		Fingerprint:  out.Fingerprint,
		Category:     out.Category,
		Severity:     out.Severity,
		Verdict:      out.Verdict,
		Schedule:     out.Schedule,
		ScheduleSeed: out.ScheduleSeed,
	}
	if pol, err := rta.CanonicalPolicySpec(out.Candidate.Params.Policy); err == nil {
		ce.Policy = pol
	}
	if out.Schedule == nil {
		ce.Name = "falsified/" + out.Fingerprint[:12]
		if e.cfg.AutoRegister {
			e.registerScenario(ce)
		}
	}
	e.found = append(e.found, ce)
	e.emit(obs.CounterexampleFound{
		T:           time.Duration(e.executions),
		Strategy:    ce.Strategy,
		Scenario:    ce.Name,
		Fingerprint: ce.Fingerprint,
		Seed:        ce.Candidate.Seed,
		Category:    ce.Category,
		Severity:    ce.Severity,
	})
}

// registerScenario files the counterexample as a named regression scenario.
// Re-finding a known counterexample (same fingerprint, e.g. across two
// campaigns in one process) is idempotent: the duplicate registration is
// deliberately ignored.
func (e *engine) registerScenario(ce Counterexample) {
	spec, err := ce.Candidate.Params.Apply(e.base)
	if err != nil {
		return
	}
	spec.Name = ce.Name
	spec.Description = fmt.Sprintf("auto-registered %s counterexample (severity %.1f) found by %s searching %s, seed %d",
		ce.Category, ce.Severity, ce.Strategy, e.cfg.Scenario, ce.Candidate.Seed)
	_ = scenario.Register(spec)
}

// Result assembles the deterministic campaign summary: counterexamples
// ranked by severity descending, fingerprint ascending on ties, bounded by
// MaxCounterexamples.
func (e *engine) result() *Result {
	ranked := slices.Clone(e.found)
	slices.SortStableFunc(ranked, func(a, b Counterexample) int {
		switch {
		case a.Severity > b.Severity:
			return -1
		case a.Severity < b.Severity:
			return 1
		default:
			return strings.Compare(a.Fingerprint, b.Fingerprint)
		}
	})
	if len(ranked) > e.cfg.MaxCounterexamples {
		ranked = ranked[:e.cfg.MaxCounterexamples]
	}
	return &Result{
		Scenario:        e.cfg.Scenario,
		Strategy:        e.strategy.name,
		Seed:            e.cfg.Seed,
		Budget:          e.cfg.Budget,
		Executions:      e.executions,
		Errored:         e.errored,
		BestSeverity:    e.best,
		Counterexamples: ranked,
	}
}

// emit delivers a campaign event to the configured observers.
func (e *engine) emit(ev obs.Event) {
	if len(e.observers) > 0 {
		e.observers.OnEvent(ev)
	}
}

// emitProgress emits the post-batch CampaignProgress event. T is the
// campaign pseudo-clock: executions-so-far as nanoseconds, monotone and
// deterministic.
func (e *engine) emitProgress() {
	e.emit(obs.CampaignProgress{
		T:            time.Duration(e.executions),
		Scenario:     e.cfg.Scenario,
		Strategy:     e.strategy.name,
		Executions:   e.executions,
		Budget:       e.cfg.Budget,
		Found:        len(e.found),
		BestSeverity: e.best,
	})
}

// scheduleFingerprint hashes a schedule counterexample's identity: the base
// spec fingerprint plus the full choice vector.
func scheduleFingerprint(specFP string, choices []int) string {
	h := sha256.New()
	h.Write([]byte(specFP))
	var b [8]byte
	for _, c := range choices {
		binary.BigEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
