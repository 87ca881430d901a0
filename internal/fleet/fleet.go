// Package fleet is a batch simulation engine: it runs many independent SOTER
// missions concurrently across a bounded worker pool and aggregates their
// verdicts into a single Report. The paper evaluates one mission at a time
// (Section V); the experiment sweeps in internal/experiments — endurance
// segments, ablation grids, seed sweeps — are embarrassingly parallel, and
// the fleet engine is how they saturate multi-core hardware.
//
// Isolation is by construction: a Mission carries a Build function that is
// invoked inside the worker, so every run assembles its own mission stack,
// topic store, executor, observers and seeded RNG. No mutable state is
// shared between workers (the -race fleet tests prove it), and results are
// collected in mission order, so a fleet run is deterministic regardless of
// worker count or completion order — including each mission's event stream,
// which its per-run obs.MetricsSink aggregates into the MissionResult
// metrics the Report is assembled from. Run threads a context through the
// pool and into every mission, so whole batches cancel cleanly. With
// Options.Store set, Run is the repository's one cell evaluator: sweep jobs,
// certification and falsification all run their (spec, seed) cells through
// it and share the tiered result store's entries.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
)

// Options configures a batch run.
//
// Sweeps whose missions share a workspace additionally share immutable build
// artifacts (inflated-obstacle indexes, occupancy grids, the A* planner)
// through a pool inside mission.Build — no fleet-level knob is needed, and
// mission's TestFleetPooledStacksByteIdenticalToFresh holds pooled sweeps
// byte-identical to fresh ones.
type Options struct {
	// Workers bounds how many missions simulate concurrently. Zero or
	// negative defaults to runtime.GOMAXPROCS(0).
	Workers int
	// Store, when non-nil, is the tiered result store every keyed mission
	// goes through: a stored verdict is served without simulating — marked
	// Cached, with the mission's own Name and Seed — and a miss makes this
	// mission the key's fill leader, whose clean result is stored for every
	// later consumer while concurrent requests for the same key wait on it.
	// Runs are reproducible per (scenario, seed), so a stored result is
	// indistinguishable from a fresh one.
	Store *store.Tiered
	// OnResult, when non-nil, is invoked inside the worker right after each
	// mission's verdict is known (simulated, stored or failed) — the
	// progress hook of the serving layer. Calls arrive in completion order,
	// concurrently from every worker; OnResult must be safe for concurrent
	// use.
	OnResult func(i int, m Mission, res MissionResult)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Mission describes one independent simulation of the batch.
type Mission struct {
	// Name labels the mission in the report (e.g. "seg-07/best-effort").
	Name string
	// Seed is echoed into the result for traceability; Build is expected to
	// thread it into the stack and run configuration.
	Seed int64
	// Key is the mission's result-store key, its
	// scenario.Spec.Fingerprint(seed); empty keeps the mission out of
	// Options.Store (a run whose configuration is not a plain (spec, seed)
	// mission must not share entries with one).
	Key string
	// Build constructs the run configuration. It runs inside the worker, so
	// everything it creates — stack, store, executor, RNG — is private to
	// this run.
	Build func() (sim.RunConfig, error)
}

// MissionResult is the verdict of one mission.
type MissionResult struct {
	Name string
	Seed int64
	// Metrics is the zero value when Err is non-nil.
	Metrics sim.Metrics
	// Wall is the wall-clock time this mission took inside its worker.
	Wall time.Duration
	// Cached marks a result served from Options.Store instead of a fresh
	// simulation.
	Cached bool
	Err    error
}

// Report aggregates a batch run.
type Report struct {
	// Results holds one entry per mission, in mission order (independent of
	// completion order).
	Results []MissionResult
	// Workers is the worker-pool bound actually used.
	Workers int
	// Wall is the wall-clock time of the whole batch.
	Wall time.Duration

	// Aggregates over the successful missions:
	Missions            int
	Failed              int
	Crashes             int
	Landings            int
	Disengagements      int
	Reengagements       int
	InvariantViolations int
	DroppedFirings      int
	// SimTime is the total simulated time across runs; SimTime/Wall is the
	// batch's real-time factor.
	SimTime    time.Duration
	DistanceKm float64
}

// FirstErr returns the first mission error in mission order, or nil.
func (r *Report) FirstErr() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return fmt.Errorf("mission %q (seed %d): %w", res.Name, res.Seed, res.Err)
		}
	}
	return nil
}

// Throughput returns completed missions per wall-clock second.
func (r *Report) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Missions-r.Failed) / r.Wall.Seconds()
}

// Format prints the batch summary as a text table, in the style of the
// experiment reports.
func (r *Report) Format() string {
	var b strings.Builder
	title := fmt.Sprintf("Fleet: %d missions, %d workers", r.Missions, r.Workers)
	b.WriteString(title + "\n" + strings.Repeat("-", len(title)) + "\n")
	fmt.Fprintf(&b, "wall %v  sim %v  throughput %.2f missions/s\n",
		r.Wall.Round(time.Millisecond), r.SimTime.Round(time.Millisecond), r.Throughput())
	fmt.Fprintf(&b, "failed %d  crashes %d  landings %d  distance %.2f km\n",
		r.Failed, r.Crashes, r.Landings, r.DistanceKm)
	fmt.Fprintf(&b, "AC→SC %d  SC→AC %d  φInv violations %d  dropped firings %d\n",
		r.Disengagements, r.Reengagements, r.InvariantViolations, r.DroppedFirings)
	return b.String()
}

// Run simulates the missions across opts.Workers goroutines and aggregates
// the verdicts. Individual mission failures do not abort the batch; they are
// recorded in the results and surfaced through FirstErr. Cancelling the
// context stops the batch cleanly: in-flight missions are cancelled (their
// partial metrics are kept), missions never started are marked with the
// context's error, and the Report stays internally consistent — a cancelled
// batch can never masquerade as a clean one.
//
// Results are collected in mission order, whichever worker finished first:
// internal/certify and internal/falsify fold each Run batch into their
// campaign state strictly in that order, which is what keeps their verdicts
// worker-count invariant. Keep that property when changing the pool.
func Run(ctx context.Context, missions []Mission, opts Options) *Report {
	start := time.Now() //soter:nondet-ok Report.Wall measures real elapsed time; it never feeds simulated state
	results := make([]MissionResult, len(missions))
	var wg sync.WaitGroup
	next := make(chan int)
	for range min(opts.workers(), len(missions)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runOne(ctx, missions[i], opts.Store)
				if opts.OnResult != nil {
					opts.OnResult(i, missions[i], results[i])
				}
			}
		}()
	}
feed:
	for i := range missions {
		select {
		case next <- i:
		case <-ctx.Done():
			// Missions the cancelled batch never started have no result;
			// mark them explicitly rather than leaving zero-value
			// "successes".
			for j := i; j < len(missions); j++ {
				results[j] = MissionResult{Name: missions[j].Name, Seed: missions[j].Seed, Err: ctx.Err()}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	rep := &Report{
		Results:  results,
		Workers:  opts.workers(),
		Wall:     time.Since(start), //soter:nondet-ok measurement-only: reporting wall time of the batch
		Missions: len(missions),
	}
	for _, res := range results {
		if res.Err != nil {
			rep.Failed++
			continue
		}
		m := res.Metrics
		if m.Crashed {
			rep.Crashes++
		}
		if m.Landed {
			rep.Landings++
		}
		rep.InvariantViolations += m.InvariantViolations
		rep.DroppedFirings += m.DroppedFirings
		rep.SimTime += m.Duration
		rep.DistanceKm += m.DistanceFlown / 1000
		for _, s := range m.Modules {
			rep.Disengagements += s.Disengagements
			rep.Reengagements += s.Reengagements
		}
	}
	return rep
}

// runOne runs one mission, through the result store when st is set and the
// mission has a key. The result is named so the deferred Wall stamp lands on
// the value returned, on every path (a store hit included).
func runOne(ctx context.Context, m Mission, st *store.Tiered) (res MissionResult) {
	res = MissionResult{Name: m.Name, Seed: m.Seed}
	start := time.Now()                             //soter:nondet-ok MissionResult.Wall measures real elapsed time; it never feeds simulated state
	defer func() { res.Wall = time.Since(start) }() //soter:nondet-ok measurement-only: reporting wall time of the mission
	var fill *store.Fill
	// repair marks a stored entry that failed to decode: a clean fresh
	// result overwrites it, so no tier keeps serving it — to this process
	// or, through GET /store/{key}, to its peers.
	repair := false
	if st != nil && m.Key != "" {
		var val []byte
		if val, fill = st.Acquire(ctx, m.Key); fill != nil {
			// This mission leads the key's fill. Abort is a no-op once
			// Complete ran; on every other exit — failure, cancellation, an
			// unencodable result — it wakes the waiters to re-probe and
			// elect a new leader rather than inherit the failure.
			defer fill.Abort()
		} else if val != nil {
			p, err := store.DecodePayload(val)
			if err == nil {
				res.Metrics, res.Cached = p.Metrics, true
				return res
			}
			repair = true
		}
		// Otherwise a corrupt entry, or a wait cancelled mid-flight:
		// simulate without a fill (the key's slot is not ours to end).
	}
	if m.Build == nil {
		res.Err = fmt.Errorf("nil Build")
		return res
	}
	cfg, err := m.Build()
	if err != nil {
		res.Err = err
		return res
	}
	// The batch context threads into the run so a cancelled batch stops
	// mid-mission; a Build that pinned its own context keeps it.
	if cfg.Context == nil {
		cfg.Context = ctx
	}
	if cfg.Label == "" {
		cfg.Label = m.Name
	}
	out, err := sim.Run(cfg)
	if out != nil {
		// A cancelled run still reports its consistent partial metrics.
		res.Metrics = out.Metrics
	}
	res.Err = err
	if (fill != nil || repair) && err == nil {
		if raw, err := (store.Payload{Metrics: res.Metrics}).Encode(); err == nil {
			if fill != nil {
				fill.Complete(ctx, raw)
			} else {
				st.Repair(ctx, m.Key, raw)
			}
		}
	}
	return res
}

// Seeds returns n deterministic seeds derived from base, spaced so derived
// per-run RNG streams do not trivially collide.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*101
	}
	return out
}

// ModuleStats sums a named module's switching statistics across the
// successful results.
func (r *Report) ModuleStats(module string) sim.ModuleStats {
	var agg sim.ModuleStats
	for _, res := range r.Results {
		if res.Err != nil {
			continue
		}
		if s, ok := res.Metrics.Modules[module]; ok {
			agg.Disengagements += s.Disengagements
			agg.Reengagements += s.Reengagements
			agg.Clamped += s.Clamped
			agg.ACTime += s.ACTime
			agg.SCTime += s.SCTime
		}
	}
	return agg
}
