package service

import (
	"context"

	"repro/internal/certify"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// CertifyJobSpec is a certification request — the third job type the server
// runs. Where a sweep job reports per-seed verdicts and a falsify job hunts
// counterexamples, a certify job answers a statistical question: is the
// cell's failure probability P(crash ∨ φInv violation) below the threshold at
// the requested confidence?
// Progress streams as certify_progress events (one per batch) over the same
// JSONL event endpoints; the terminal certify.Result is served by
// GET /jobs/{id}/report.
type CertifyJobSpec struct {
	// Scenario names the base scenario of the certified cell.
	Scenario string `json:"scenario"`
	// Overrides is the declarative spec delta defining the cell — the same
	// scenario.Delta falsification counterexamples carry, so a falsified
	// cell pastes straight into a certification request.
	Overrides scenario.Delta `json:"overrides,omitzero"`
	// Threshold is the failure-probability bound under test, in (0,1).
	// Required.
	Threshold float64 `json:"threshold"`
	// Confidence is the two-sided confidence level; zero defaults to
	// certify.DefaultConfidence.
	Confidence float64 `json:"confidence,omitempty"`
	// MaxSeeds bounds the sweep; zero defaults to certify.DefaultMaxSeeds.
	MaxSeeds int `json:"max_seeds,omitempty"`
	// Batch is the early-stopping granularity; zero defaults to
	// certify.DefaultBatch.
	Batch int `json:"batch,omitempty"`
	// Seed is the base of the deterministic seed sequence; zero defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// Duration overrides the cell's mission horizon.
	Duration Duration `json:"duration,omitempty"`
	// FaultActivation (<1) switches the spec's fault profile to the sporadic
	// model; Boost (>1) adds importance sampling on top. See certify.Config.
	FaultActivation float64 `json:"fault_activation,omitempty"`
	Boost           float64 `json:"boost,omitempty"`
	// Workers bounds the campaign's evaluation pool (never raised above the
	// server's own bound). Worker count never changes certification results.
	Workers int `json:"workers,omitempty"`
}

// config compiles the wire spec into a campaign configuration. A wire
// duration wins over the overrides' duration_ns.
func (cs CertifyJobSpec) config() certify.Config {
	overrides := cs.Overrides
	if d := cs.Duration.present(); d != nil {
		overrides.Duration = d
	}
	return certify.Config{
		Scenario:        cs.Scenario,
		Overrides:       overrides,
		Threshold:       cs.Threshold,
		Confidence:      cs.Confidence,
		MaxSeeds:        cs.MaxSeeds,
		Batch:           cs.Batch,
		Seed:            cs.Seed,
		FaultActivation: cs.FaultActivation,
		Boost:           cs.Boost,
	}
}

// request implements kind: a certification's cells are its seed budget;
// early stopping legitimately finishes with fewer done.
func (cs CertifyJobSpec) request() (string, int, int) {
	cells := cs.MaxSeeds
	if cells <= 0 {
		cells = certify.DefaultMaxSeeds
	}
	return cs.Scenario, cells, cs.Workers
}

// resolve implements kind: the campaign configuration validates itself.
func (cs CertifyJobSpec) resolve() (kind, error) { return cs, cs.config().Validate() }

// run implements kind. The job's fan-out is wired straight into the engine's
// observer list, so CertifyProgress events stream to /jobs/{id}/events
// subscribers exactly like sweep events do; they also keep the job's cell
// counters live for polling clients. A cancelled campaign keeps the partial
// (inconclusive) result it accumulated.
func (cs CertifyJobSpec) run(ctx context.Context, e env) (any, error) {
	cfg := cs.config()
	cfg.Workers = e.workers
	cfg.Observers = []obs.Observer{e.fan, obs.ObserverFunc(func(ev obs.Event) {
		if p, ok := ev.(obs.CertifyProgress); ok {
			e.progress(p.Seeds, 0)
		}
	})}
	// Deterministic cells (FaultActivation == 1, no boost) share fingerprints
	// with sweep jobs, so a certification after a warm sweep consumes stored
	// outcomes instead of fresh simulations; the engine ignores the store for
	// sporadic/boosted cells.
	cfg.Store = e.store
	res, err := certify.Certify(ctx, cfg)
	return res, err
}

// view implements kind.
func (cs CertifyJobSpec) view(v *JobView, result any) {
	v.Certify = &cs
	v.CertifyResult, _ = result.(*certify.Result)
}

// report implements kind: the certification result as is.
func (cs CertifyJobSpec) report(result any) any { return result }
