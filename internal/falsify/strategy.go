package falsify

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Strategy decides how a campaign spends its execution budget. Search drives
// the engine until the budget is exhausted (Remaining() == 0) or the context
// is cancelled; it must be deterministic given the engine's RNG — strategies
// draw candidates single-threaded between Evaluate calls, never concurrently.
type Strategy interface {
	// Name returns the canonical strategy spec ("random", "guided:8", ...),
	// with defaulted parameters made explicit — the form results report.
	Name() string
	// Search runs the campaign. A cancelled context returns its error; the
	// engine keeps whatever was accounted before.
	Search(ctx context.Context, e *Engine) error
}

// DefaultStrategyName names the default (random sampling) strategy.
const DefaultStrategyName = "random"

// strategies maps each strategy name — the first component of a spec — to
// the factory building it from the spec's integer parameter ("name:K"). The
// parameter is 0 when the spec had none; factories substitute their default
// or reject a parameter they do not take.
var strategies = map[string]func(param int) (Strategy, error){
	"random": func(param int) (Strategy, error) {
		if param != 0 {
			return nil, fmt.Errorf("strategy %q takes no parameter", "random")
		}
		return randomStrategy{}, nil
	},
	"guided": func(param int) (Strategy, error) {
		if param == 0 {
			param = DefaultGuidedBatch
		}
		return guidedStrategy{batch: param}, nil
	},
	"schedule": func(param int) (Strategy, error) {
		return scheduleStrategy{seeds: param}, nil
	},
}

// StrategyNames returns the strategy names, sorted.
func StrategyNames() []string { return slices.Sorted(maps.Keys(strategies)) }

// ParseStrategy resolves a strategy spec — "name" or "name:K" with K a
// positive integer. The empty spec resolves to the default random strategy.
func ParseStrategy(spec string) (Strategy, error) {
	name, param := spec, 0
	if spec == "" {
		name = DefaultStrategyName
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		raw := name[i+1:]
		name = name[:i]
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("strategy spec %q: parameter %q must be a positive integer", spec, raw)
		}
		param = n
	}
	f, ok := strategies[name]
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q (have: %s)", name, strings.Join(StrategyNames(), ", "))
	}
	return f(param)
}

// randomBatch is how many candidates the random strategy evaluates per
// batch. A fixed constant — NOT the worker count — so the candidate stream,
// and with it the whole campaign, is identical at any parallelism.
const randomBatch = 8

// randomStrategy samples the space uniformly: every batch is fresh draws of
// (1–3 mutations over the base, fresh seed). The baseline strategy and the
// coverage workhorse.
type randomStrategy struct{}

func (randomStrategy) Name() string { return "random" }

func (randomStrategy) Search(ctx context.Context, e *Engine) error {
	for e.Remaining() > 0 {
		n := min(randomBatch, e.Remaining())
		batch := make([]Candidate, n)
		for i := range batch {
			batch[i] = e.RandomCandidate()
		}
		if _, err := e.Evaluate(ctx, batch); err != nil {
			return err
		}
	}
	return nil
}

// DefaultGuidedBatch is the guided strategy's default mutants-per-generation.
const DefaultGuidedBatch = 8

// guidedStalePatience is how many non-improving generations the guided
// strategy tolerates before restarting from a fresh random incumbent.
const guidedStalePatience = 3

// guidedStrategy hill-climbs on the oracle's severity objective: each
// generation evaluates `batch` single-mutation neighbours of the incumbent
// (half keeping the incumbent's seed, half drawing fresh ones), adopts the
// best strict improvement, and random-restarts after a few stale
// generations. The continuous severity terms (clamp count, near-miss
// distance) give it a slope to climb before any discrete violation exists.
type guidedStrategy struct{ batch int }

func (g guidedStrategy) Name() string { return fmt.Sprintf("guided:%d", g.batch) }

func (g guidedStrategy) Search(ctx context.Context, e *Engine) error {
	incumbent, sev, err := g.seedIncumbent(ctx, e)
	if err != nil || e.Remaining() <= 0 {
		return err
	}
	stale := 0
	for e.Remaining() > 0 {
		n := min(g.batch, e.Remaining())
		batch := make([]Candidate, n)
		for i := range batch {
			c := Candidate{Params: e.Mutate(incumbent.Params), Seed: incumbent.Seed}
			if i%2 == 1 {
				c.Seed = e.NewSeed()
			}
			batch[i] = c
		}
		outs, err := e.Evaluate(ctx, batch)
		if err != nil {
			return err
		}
		improved := false
		for _, out := range outs {
			if out.Err == nil && out.Severity > sev {
				incumbent, sev = out.Candidate, out.Severity
				improved = true
			}
		}
		if improved {
			stale = 0
			continue
		}
		if stale++; stale >= guidedStalePatience {
			if incumbent, sev, err = g.seedIncumbent(ctx, e); err != nil {
				return err
			}
			stale = 0
		}
	}
	return nil
}

// seedIncumbent evaluates one fresh random candidate as the next incumbent.
func (guidedStrategy) seedIncumbent(ctx context.Context, e *Engine) (Candidate, float64, error) {
	c := e.RandomCandidate()
	outs, err := e.Evaluate(ctx, []Candidate{c})
	if err != nil || len(outs) == 0 {
		return c, 0, err
	}
	return c, outs[0].Severity, nil
}
