package falsify

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// strategy is a resolved strategy spec. name is the canonical spec
// ("random", "guided:8", ...), with defaulted parameters made explicit — the
// form results report. search drives the engine until the budget is
// exhausted (remaining() == 0) or ctx is cancelled; it must be deterministic
// given the engine's RNG — it draws candidates single-threaded between
// evaluate calls, never concurrently. A cancelled context returns its error;
// the engine keeps whatever was accounted before.
type strategy struct {
	name   string
	search func(ctx context.Context, e *engine) error
}

// DefaultStrategyName names the default (random sampling) strategy.
const DefaultStrategyName = "random"

// strategies is the fixed strategy table: it maps each strategy name — the
// first component of a spec — to the function resolving the spec's integer
// parameter ("name:K"). The parameter is 0 when the spec had none; a
// strategy substitutes its default or rejects a parameter it does not take.
var strategies = map[string]func(param int) (strategy, error){
	"random": func(param int) (strategy, error) {
		if param != 0 {
			return strategy{}, fmt.Errorf("strategy %q takes no parameter", "random")
		}
		return strategy{name: "random", search: searchRandom}, nil
	},
	"guided": func(param int) (strategy, error) {
		if param == 0 {
			param = defaultGuidedBatch
		}
		return strategy{
			name:   fmt.Sprintf("guided:%d", param),
			search: func(ctx context.Context, e *engine) error { return searchGuided(ctx, e, param) },
		}, nil
	},
	"schedule": func(param int) (strategy, error) {
		name := "schedule"
		if param > 0 {
			name = fmt.Sprintf("schedule:%d", param)
		}
		return strategy{
			name:   name,
			search: func(ctx context.Context, e *engine) error { return searchSchedules(ctx, e, param) },
		}, nil
	},
}

// StrategyNames returns the strategy names, sorted.
func StrategyNames() []string { return slices.Sorted(maps.Keys(strategies)) }

// parseStrategy resolves a strategy spec — "name" or "name:K" with K a
// positive integer. The empty spec resolves to the default random strategy.
func parseStrategy(spec string) (strategy, error) {
	name, param := spec, 0
	if spec == "" {
		name = DefaultStrategyName
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		raw := name[i+1:]
		name = name[:i]
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return strategy{}, fmt.Errorf("strategy spec %q: parameter %q must be a positive integer", spec, raw)
		}
		param = n
	}
	f, ok := strategies[name]
	if !ok {
		return strategy{}, fmt.Errorf("unknown strategy %q (have: %s)", name, strings.Join(StrategyNames(), ", "))
	}
	return f(param)
}

// randomBatch is how many candidates the random strategy evaluates per
// batch. A fixed constant — NOT the worker count — so the candidate stream,
// and with it the whole campaign, is identical at any parallelism.
const randomBatch = 8

// searchRandom samples the space uniformly: every batch is fresh draws of
// (1–3 mutations over the base, fresh seed). The baseline strategy and the
// coverage workhorse.
func searchRandom(ctx context.Context, e *engine) error {
	for e.remaining() > 0 {
		n := min(randomBatch, e.remaining())
		batch := make([]Candidate, n)
		for i := range batch {
			batch[i] = e.randomCandidate()
		}
		if _, err := e.evaluate(ctx, batch); err != nil {
			return err
		}
	}
	return nil
}

// defaultGuidedBatch is the guided strategy's default mutants-per-generation.
const defaultGuidedBatch = 8

// guidedStalePatience is how many non-improving generations the guided
// strategy tolerates before restarting from a fresh random incumbent.
const guidedStalePatience = 3

// searchGuided hill-climbs on the oracle's severity objective: each
// generation evaluates batchSize single-mutation neighbours of the incumbent
// (half keeping the incumbent's seed, half drawing fresh ones), adopts the
// best strict improvement, and random-restarts after a few stale
// generations. The continuous severity terms (clamp count, near-miss
// distance) give it a slope to climb before any discrete violation exists.
func searchGuided(ctx context.Context, e *engine, batchSize int) error {
	incumbent, sev, err := seedIncumbent(ctx, e)
	if err != nil || e.remaining() <= 0 {
		return err
	}
	stale := 0
	for e.remaining() > 0 {
		n := min(batchSize, e.remaining())
		batch := make([]Candidate, n)
		for i := range batch {
			c := Candidate{Params: e.mutate(incumbent.Params), Seed: incumbent.Seed}
			if i%2 == 1 {
				c.Seed = e.newSeed()
			}
			batch[i] = c
		}
		outs, err := e.evaluate(ctx, batch)
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
			if incumbent, sev, err = seedIncumbent(ctx, e); err != nil {
				return err
			}
			stale = 0
		}
	}
	return nil
}

// seedIncumbent evaluates one fresh random candidate as the next incumbent.
func seedIncumbent(ctx context.Context, e *engine) (Candidate, float64, error) {
	c := e.randomCandidate()
	outs, err := e.evaluate(ctx, []Candidate{c})
	if err != nil || len(outs) == 0 {
		return c, 0, err
	}
	return c, outs[0].Severity, nil
}
