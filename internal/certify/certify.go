package certify

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/controller"
	"repro/internal/fleet"
	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// Verdict is a certification campaign's terminal answer to "is this cell's
// failure probability P(crash ∨ φInv violation) below the threshold?".
type Verdict string

// The verdicts. VerdictError only appears in matrix cells whose
// configuration is invalid (e.g. importance sampling over a fault-free
// scenario); Certify itself refuses such configs up front.
const (
	VerdictCertified    Verdict = "certified"
	VerdictRefuted      Verdict = "refuted"
	VerdictInconclusive Verdict = "inconclusive-at-budget"
	VerdictError        Verdict = "error"
)

// Default certification knobs.
const (
	// DefaultMaxSeeds is the default seed budget of a campaign.
	DefaultMaxSeeds = 4096
	// DefaultBatch is the default number of seeds per sequential batch — the
	// early-stopping granularity.
	DefaultBatch = 32
	// DefaultConfidence is the default two-sided confidence level.
	DefaultConfidence = 0.95
)

// Config is one certification cell plus the test to run against it: a
// (scenario, overrides) pair, the failure-probability threshold and confidence
// level, and the sequential-sweep knobs. The cell resolves through
// scenario.Resolve, so every knob of the cell, the mission horizon included,
// lives in Overrides and is refused there when out of range. The resulting
// verdict, estimate, interval and seeds-consumed are a pure function of this
// struct — worker count never changes them.
type Config struct {
	// Scenario names the base scenario (scenario registry). Required.
	Scenario string
	// Overrides is the spec delta defining the cell — the same
	// scenario.Delta falsification candidates carry, so a falsified cell can
	// be fed straight back into certification. Its Policy field selects the
	// switching policy under test and its Duration the mission horizon.
	Overrides scenario.Delta
	// Threshold is the failure-probability bound being tested
	// ("P(crash ∨ φInv violation) < Threshold"). Required, in (0, 1).
	Threshold float64
	// Confidence is the two-sided confidence level of the interval; zero
	// defaults to DefaultConfidence.
	Confidence float64
	// MaxSeeds bounds the number of seeds swept; zero defaults to
	// DefaultMaxSeeds.
	MaxSeeds int
	// Batch is the number of seeds evaluated between interval checks; zero
	// defaults to DefaultBatch. Part of the result's identity: changing the
	// batch size moves the stopping points.
	Batch int
	// Seed is the base of the deterministic seed sequence (run i uses
	// Seed + 101·i, the fleet.Seeds spacing); zero defaults to 1.
	Seed int64
	// Workers bounds concurrent evaluations; zero defaults to GOMAXPROCS.
	// Worker count never changes certification results.
	Workers int
	// FaultActivation is the nominal per-window fault-activation probability
	// of the sporadic fault model: each window the spec's fault profile
	// schedules fires independently with this probability. Zero or 1 keeps
	// the deterministic profile (every window fires).
	FaultActivation float64
	// Boost enables importance sampling: runs are sampled with the
	// activation probability raised to Boost·FaultActivation and failure
	// indicators reweighted by the exact likelihood ratio. Zero or 1 keeps
	// plain sampling; values above 1 require an active fault profile and
	// Boost·FaultActivation < 1 — the nominal measure must stay absolutely
	// continuous with respect to the sampling measure, or the reweighted
	// estimator silently loses the fault-free slice of the failure
	// probability.
	Boost float64
	// Observers receive the campaign's CertifyProgress stream (one event per
	// batch, terminal verdict on the last) on the campaign goroutine.
	Observers []obs.Observer
	// Store, when non-nil, shares mission verdicts with the serving layer's
	// tiered result store. It is consulted only when the fault model is
	// deterministic (FaultActivation == 1, no boost): such a cell's runs are
	// plain (spec, seed) missions with the same fingerprints as sweep-job
	// cells, so a certification after a warm sweep consumes stored outcomes
	// instead of fresh simulations — and its own fresh runs warm the store
	// for later sweeps. Sporadic or boosted runs alter the mission (thinned
	// fault windows) and never touch the store. Reuse never changes the
	// Result: a stored verdict is byte-identical to a fresh run's.
	Store *store.Tiered
}

// Result is a certification campaign's deterministic summary: given the same
// Config, two runs produce byte-identical JSON at any worker count.
type Result struct {
	Scenario string `json:"scenario"`
	// Policy is the canonical switching-policy spec of the certified cell.
	Policy     string  `json:"policy"`
	Threshold  float64 `json:"threshold"`
	Confidence float64 `json:"confidence"`
	// Mode is "plain" or "importance"; Method names the interval driving the
	// verdict ("clopper-pearson" or "empirical-bernstein").
	Mode    string  `json:"mode"`
	Method  string  `json:"method"`
	Verdict Verdict `json:"verdict"`
	// Seeds is the number of seeds consumed (early stopping makes this
	// smaller than MaxSeeds for conclusive cells); Crashes the runs among
	// them that crashed and Violations the runs whose φInv monitor reported
	// at least one violation (a run may count in both); Errored the runs
	// that could not be evaluated (excluded from the estimator).
	Seeds      int `json:"seeds"`
	MaxSeeds   int `json:"max_seeds"`
	Crashes    int `json:"crashes"`
	Violations int `json:"violations"`
	Errored    int `json:"errored,omitempty"`
	// Estimate is the failure-probability estimate ([weighted] rate of runs
	// that crashed or violated φInv);
	// [Lo, Hi] the verdict-driving interval, [WilsonLo, WilsonHi] the
	// narrower Wilson display interval.
	Estimate float64 `json:"estimate"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	WilsonLo float64 `json:"wilson_lo"`
	WilsonHi float64 `json:"wilson_hi"`
	// Batch and Seed pin the rest of the result's identity.
	Batch int   `json:"batch"`
	Seed  int64 `json:"seed"`
	// FaultActivation and Boost echo the sporadic fault model (0 when the
	// profile ran deterministically).
	FaultActivation float64 `json:"fault_activation,omitempty"`
	Boost           float64 `json:"boost,omitempty"`
	// Err carries the configuration error of a matrix cell that could not
	// run (Verdict "error").
	Err string `json:"err,omitempty"`
}

// Certify runs one certification campaign to completion, early stop, or
// cancellation (the partial Result accumulated so far is returned marked
// inconclusive, together with the context's error).
func Certify(ctx context.Context, cfg Config) (*Result, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return c.run(ctx)
}

// Validate checks the cell configuration without running anything — the
// submit-time gate of the serving layer.
func (cfg Config) Validate() error {
	_, err := newCampaign(cfg)
	return err
}

// campaign is the resolved sequential-sweep state. Accounting is
// single-threaded in seed order; only evaluate's mission Build closures run
// on fleet workers, and everything they touch on the campaign is immutable
// (each writes only its own run's outcome).
type campaign struct {
	cfg       Config
	spec      scenario.Spec
	policy    string
	p, q      float64 // nominal and sampling activation probabilities
	observers obs.Multi

	seeds      int // consumed (including errored)
	samples    int // evaluated runs feeding the estimator
	crashes    int // runs that crashed
	violations int // runs with a φInv violation
	failures   int // runs that crashed or violated φInv
	errored    int
	sumY       float64 // Σ weight·failed, in seed order
	sumY2      float64 // Σ (weight·failed)², in seed order
	rmax       float64 // largest possible weight over evaluated runs
}

// newCampaign resolves and validates a cell configuration.
func newCampaign(cfg Config) (*campaign, error) {
	spec, err := scenario.Resolve(cfg.Scenario, cfg.Overrides)
	if err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	if !(cfg.Threshold > 0 && cfg.Threshold < 1) {
		return nil, fmt.Errorf("certify: threshold %v outside (0,1)", cfg.Threshold)
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = DefaultConfidence
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		return nil, fmt.Errorf("certify: confidence %v outside (0,1)", cfg.Confidence)
	}
	if cfg.MaxSeeds == 0 {
		cfg.MaxSeeds = DefaultMaxSeeds
	}
	if cfg.MaxSeeds < 0 {
		return nil, fmt.Errorf("certify: max seeds %d must be positive", cfg.MaxSeeds)
	}
	if cfg.Batch == 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("certify: batch %d must be positive", cfg.Batch)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	policy, err := rta.CanonicalPolicySpec(spec.SwitchPolicy)
	if err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	p := cfg.FaultActivation
	switch {
	case p == 0:
		p = 1
	case p < 0 || p > 1:
		return nil, fmt.Errorf("certify: fault activation %v outside (0,1]", cfg.FaultActivation)
	}
	boost := cfg.Boost
	if boost == 0 {
		boost = 1
	}
	if boost < 1 {
		return nil, fmt.Errorf("certify: boost %v must be >= 1", cfg.Boost)
	}
	if boost > 1 {
		if p >= 1 {
			return nil, errors.New("certify: importance sampling needs a sporadic fault model (fault activation < 1)")
		}
		if !spec.Faults.Active() {
			return nil, fmt.Errorf("certify: importance sampling needs an active fault profile on %q", cfg.Scenario)
		}
		if boost*p >= 1 {
			return nil, fmt.Errorf("certify: boost·activation = %v must stay below 1 (absolute continuity of the nominal measure)", boost*p)
		}
	}
	cfg.FaultActivation, cfg.Boost = p, boost
	return &campaign{
		cfg:       cfg,
		spec:      spec,
		policy:    policy,
		p:         p,
		q:         math.Min(1, boost*p),
		observers: obs.Multi(cfg.Observers),
		rmax:      1,
	}, nil
}

// importance reports whether the sampler deviates from the nominal measure —
// the empirical-Bernstein path. Plain sporadic sampling (q == p) stays
// binomial and keeps the exact Clopper-Pearson interval.
func (c *campaign) importance() bool { return c.q > c.p }

// run is the sequential sweep: evaluate a batch of seeds on the fleet engine,
// fold the outcomes in seed order, recompute the interval, stop when it is
// conclusive against the threshold or the budget is spent. A cancelled batch
// is discarded whole, so the partial Result covers exactly the accounted
// batches — consistent at any worker count.
func (c *campaign) run(ctx context.Context) (*Result, error) {
	for c.seeds < c.cfg.MaxSeeds {
		n := c.cfg.Batch
		if rem := c.cfg.MaxSeeds - c.seeds; n > rem {
			n = rem
		}
		outs := c.evaluate(ctx, c.seeds, n)
		if err := ctx.Err(); err != nil {
			res := c.result(VerdictInconclusive)
			c.emitProgress(res)
			return res, err
		}
		for i := range outs {
			c.account(&outs[i])
		}
		verdict := c.verdict()
		res := c.result(verdict)
		c.emitProgress(res)
		if verdict != "" {
			return res, nil
		}
	}
	res := c.result(VerdictInconclusive)
	c.emitProgress(res)
	return res, nil
}

// runOutcome is one evaluated seed.
type runOutcome struct {
	crashed  bool
	violated bool    // the φInv monitor reported a violation
	weight   float64 // likelihood-ratio weight (1 under the nominal sampler)
	wmax     float64 // largest weight any outcome of this run could carry
	err      error
}

// batchKeys fingerprints the batch's seeds for the result store, or returns
// nil when the store does not apply: no store, or a sporadic/boosted cell,
// whose thinned fault windows make its runs differ from the sweep mission of
// (spec, seed) — only a deterministic fault model leaves BuildWith without a
// tweak. A fingerprint failure disables reuse for the batch rather than
// failing it — the campaign can always just simulate.
func (c *campaign) batchKeys(first, n int) []string {
	if c.cfg.Store == nil || c.p < 1 {
		return nil
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = c.cfg.Seed + int64(first+i)*101
	}
	keys, err := c.spec.Fingerprints(seeds)
	if err != nil {
		return nil
	}
	return keys
}

// evaluate runs seeds first..first+n-1 as one fleet batch. Keyed missions
// (deterministic cells with a store) go through the result store, so a
// stored verdict is consumed without simulating and a fresh one is stored
// for every later consumer, sweep jobs included. Sporadic cells thin their
// fault windows inside the worker, which writes each run's likelihood-ratio
// weights into its own outcome.
func (c *campaign) evaluate(ctx context.Context, first, n int) []runOutcome {
	keys := c.batchKeys(first, n)
	outs := make([]runOutcome, n)
	missions := make([]fleet.Mission, n)
	for i := range missions {
		seed := c.cfg.Seed + int64(first+i)*101
		out := &outs[i]
		*out = runOutcome{weight: 1, wmax: 1}
		var tweak func(*mission.StackConfig)
		if c.q < 1 || c.p < 1 {
			tweak = func(sc *mission.StackConfig) {
				sc.ACFaults, out.weight, out.wmax = thinFaults(sc.ACFaults, c.p, c.q, activationSeed(seed))
			}
		}
		missions[i] = fleet.Mission{
			Name:  c.cfg.Scenario,
			Seed:  seed,
			Build: func() (sim.RunConfig, error) { return c.spec.BuildWith(seed, tweak) },
		}
		if keys != nil {
			missions[i].Key = keys[i]
		}
	}
	rep := fleet.Run(ctx, missions, fleet.Options{Workers: c.cfg.Workers, Store: c.cfg.Store})
	for i, res := range rep.Results {
		outs[i].crashed, outs[i].violated, outs[i].err = res.Metrics.Crashed, res.Metrics.InvariantViolations > 0, res.Err
	}
	return outs
}

// thinFaults samples the sporadic fault model: each scheduled window fires
// independently with probability q, and the run's likelihood-ratio weight
// under the nominal activation probability p is (p/q)^a·((1−p)/(1−q))^(w−a)
// for a active windows of w. The draw is a pure function of the activation
// seed, so thinning never depends on scheduling.
func thinFaults(windows []controller.Fault, p, q float64, seed int64) (kept []controller.Fault, weight, wmax float64) {
	w := len(windows)
	if w == 0 || (p >= 1 && q >= 1) {
		return windows, 1, 1
	}
	rng := rand.New(rand.NewSource(seed))
	kept = make([]controller.Fault, 0, w)
	for _, f := range windows {
		if rng.Float64() < q {
			kept = append(kept, f)
		}
	}
	a := len(kept)
	weight = 1.0
	if a > 0 {
		weight *= math.Pow(p/q, float64(a))
	}
	if w > a {
		weight *= math.Pow((1-p)/(1-q), float64(w-a))
	}
	if q < 1 {
		wmax = math.Pow((1-p)/(1-q), float64(w))
	} else {
		// All windows always fire: the only reachable weight is p^w.
		wmax = math.Pow(p, float64(w))
	}
	return kept, weight, wmax
}

// activationSeed derives the fault-activation RNG stream for a run seed —
// a splitmix64 step, so the stream is decorrelated from the run's own
// simulation RNG (which is seeded with the run seed directly).
func activationSeed(runSeed int64) int64 {
	z := uint64(runSeed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// account folds one outcome into the campaign state, in seed order.
func (c *campaign) account(o *runOutcome) {
	c.seeds++
	if o.err != nil {
		c.errored++
		return
	}
	c.samples++
	if o.wmax > c.rmax {
		c.rmax = o.wmax
	}
	if o.crashed {
		c.crashes++
	}
	if o.violated {
		c.violations++
	}
	if o.crashed || o.violated {
		c.failures++
		c.sumY += o.weight
		c.sumY2 += o.weight * o.weight
	}
}

// estimate returns the current failure-probability estimate and its
// verdict-driving interval.
func (c *campaign) estimate() (est float64, iv Interval) {
	n := c.samples
	if n == 0 {
		return 0, Interval{Lo: 0, Hi: 1}
	}
	if !c.importance() {
		return float64(c.failures) / float64(n), ClopperPearson(c.failures, n, c.cfg.Confidence)
	}
	mean := c.sumY / float64(n)
	var variance float64
	if n > 1 {
		variance = (c.sumY2 - float64(n)*mean*mean) / float64(n-1)
		if variance < 0 {
			variance = 0
		}
	}
	return mean, bernstein(mean, variance, c.rmax, n, c.cfg.Confidence)
}

// verdict applies the stopping rule to the current interval: certified when
// the upper bound is below the threshold, refuted when the lower bound is
// above it, empty (keep sweeping) otherwise.
func (c *campaign) verdict() Verdict {
	if c.samples == 0 {
		return ""
	}
	_, iv := c.estimate()
	switch {
	case iv.Hi < c.cfg.Threshold:
		return VerdictCertified
	case iv.Lo > c.cfg.Threshold:
		return VerdictRefuted
	default:
		return ""
	}
}

// result assembles the deterministic summary for the current state.
func (c *campaign) result(verdict Verdict) *Result {
	est, iv := c.estimate()
	wilson := Interval{Lo: 0, Hi: 1}
	if c.samples > 0 {
		if c.importance() {
			wilson = wilsonAt(clamp01(est), c.samples, c.cfg.Confidence)
		} else {
			wilson = Wilson(c.failures, c.samples, c.cfg.Confidence)
		}
	}
	res := &Result{
		Scenario:   c.cfg.Scenario,
		Policy:     c.policy,
		Threshold:  c.cfg.Threshold,
		Confidence: c.cfg.Confidence,
		Mode:       "plain",
		Method:     "clopper-pearson",
		Verdict:    verdict,
		Seeds:      c.seeds,
		MaxSeeds:   c.cfg.MaxSeeds,
		Crashes:    c.crashes,
		Violations: c.violations,
		Errored:    c.errored,
		Estimate:   est,
		Lo:         iv.Lo,
		Hi:         iv.Hi,
		WilsonLo:   wilson.Lo,
		WilsonHi:   wilson.Hi,
		Batch:      c.cfg.Batch,
		Seed:       c.cfg.Seed,
	}
	if c.p < 1 {
		res.FaultActivation = c.p
	}
	if c.importance() {
		res.Mode, res.Method = "importance", "empirical-bernstein"
		res.Boost = c.cfg.Boost
	}
	return res
}

// emitProgress emits the post-batch CertifyProgress event. T is the campaign
// pseudo-clock: seeds-consumed as nanoseconds, monotone and deterministic.
func (c *campaign) emitProgress(res *Result) {
	if len(c.observers) == 0 {
		return
	}
	c.observers.OnEvent(obs.CertifyProgress{
		T:          time.Duration(res.Seeds),
		Scenario:   res.Scenario,
		Policy:     res.Policy,
		Seeds:      res.Seeds,
		MaxSeeds:   res.MaxSeeds,
		Crashes:    res.Crashes,
		Violations: res.Violations,
		Estimate:   res.Estimate,
		Lo:         res.Lo,
		Hi:         res.Hi,
		Threshold:  res.Threshold,
		Verdict:    string(res.Verdict),
	})
}
