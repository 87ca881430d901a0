// Command soter-bench regenerates every table and figure of the paper's
// evaluation (Section V) as text tables: the experiments.Catalogue entries,
// which BenchmarkExperiments also runs, addressable individually. Each
// experiment's internal scenario sweeps are dispatched through the fleet
// engine (internal/fleet) bounded at -workers, so sweep-heavy experiments
// saturate the available cores while reports still print in order as they
// finish.
// The extra "scenarios" experiment sweeps the whole declarative workload
// registry (internal/scenario) through the fleet scenario-grid builder.
//
// Usage:
//
//	soter-bench [-seed N] [-quick] [-workers N] [-timeout D]
//	            [-cpuprofile F] [-memprofile F] [experiment ...]
//	soter-bench -certify [-certify-scenario S] [-certify-policies P,Q]
//	            [-threshold T] [-confidence C] [-max-seeds N]
//	            [-certify-batch N] [-certify-duration D]
//	            [-certify-activation P] [-certify-boost B] [-json]
//
// With no arguments every experiment runs. Experiments: fig5r fig5l fig6
// fig10 fig12a fig12b fig12b-fleet fig12c sec5c sec5d abl-delta abl-policy
// abl-return scenarios. abl-policy is the switching-policy grid opened by
// the rta.Policy redesign: every registered policy family on the faulted
// ablation mission.
//
// The second form runs statistical certification (internal/certify) instead
// of the paper experiments: sequential seed sweeps with early stopping decide
// whether each cell's failure probability is below -threshold at -confidence.
// A run fails when it crashed or violated φInv (Theorem 3.1).
// -certify-scenario selects one cell (its registry policy, or the
// -certify-policies list); with no scenario the whole registry × policy
// matrix is certified. With -json, each cell's certify.Result is written as
// one JSON object: only deterministic fields, so a rerun prints the same
// bytes. -json is a -certify flag; soter-bench refuses it without -certify.
//
// The whole harness is cancellation-aware: -timeout bounds the total wall
// clock and SIGINT/SIGTERM interrupt it; either way the experiments finished
// so far have already printed and the harness exits with a partial-summary
// note instead of losing the session.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/certify"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soter-bench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "experiment seed")
	quick := flag.Bool("quick", false, "run scaled-down configurations")
	workers := flag.Int("workers", 0, "fleet worker-pool bound (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "cancel the whole harness after this wall-clock budget (0 = none)")
	jsonOut := flag.Bool("json", false, "with -certify: emit one certify.Result JSON object per cell instead of text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiments finish) to this file")
	certifyMode := flag.Bool("certify", false, "run statistical certification instead of the paper experiments")
	certifyScenario := flag.String("certify-scenario", "", "certify this one scenario (empty = the whole registry × policy matrix)")
	certifyPolicies := flag.String("certify-policies", "", "comma-separated switching policies to certify under (empty = scenario default, or every registered policy in matrix mode)")
	threshold := flag.Float64("threshold", 1e-3, "bound under test on P(crash ∨ φInv violation)")
	confidence := flag.Float64("confidence", certify.DefaultConfidence, "two-sided confidence level of the interval")
	maxSeeds := flag.Int("max-seeds", certify.DefaultMaxSeeds, "seed budget per cell")
	certifyBatch := flag.Int("certify-batch", certify.DefaultBatch, "seeds per sequential batch (the early-stopping granularity)")
	certifyDuration := flag.Duration("certify-duration", 0, "per-run mission horizon override (0 = scenario default)")
	certifyActivation := flag.Float64("certify-activation", 0, "sporadic fault model: per-window activation probability (0 or 1 = deterministic profile)")
	certifyBoost := flag.Float64("certify-boost", 0, "importance sampling: activation boost factor (0 or 1 = plain sampling)")
	flag.Parse()
	if *jsonOut && !*certifyMode {
		return errors.New("-json is a -certify flag: the paper experiments print text tables")
	}

	// Profiles cover exactly the selected experiments: the CPU profile starts
	// before the first and stops after the last; the heap profile is snapped
	// once everything has finished (after a GC, so it reflects live retention
	// rather than garbage). Both feed `go tool pprof`.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	// The run context is cancelled by SIGINT/SIGTERM and, when -timeout is
	// set, by the wall-clock budget; every experiment threads it into its
	// simulation runs and fleet sweeps.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *certifyMode {
		cell := certify.Config{
			Threshold:       *threshold,
			Confidence:      *confidence,
			MaxSeeds:        *maxSeeds,
			Batch:           *certifyBatch,
			Seed:            *seed,
			Workers:         *workers,
			FaultActivation: *certifyActivation,
			Boost:           *certifyBoost,
		}
		if *certifyDuration != 0 {
			cell.Overrides.Duration = certifyDuration
		}
		return runCertify(ctx, *certifyScenario, *certifyPolicies, cell, *jsonOut)
	}

	cat := experiments.Catalogue()
	byName := make(map[string]experiments.Experiment, len(cat))
	var names []string
	for _, e := range cat {
		byName[e.Name] = e
		names = append(names, e.Name)
	}
	selected := flag.Args()
	if len(selected) == 0 {
		selected = slices.Clone(names)
	}
	slices.Sort(names)
	for _, name := range selected {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("unknown experiment %q (have: %v)", name, names)
		}
	}

	// Experiments run one at a time (reports print as they finish); the
	// parallelism lives inside each experiment, whose scenario sweeps fan
	// out through the fleet engine bounded at -workers, so total concurrency
	// never exceeds the flag.
	start := time.Now()
	completed := 0
	for _, name := range selected {
		expStart := time.Now()
		out, err := byName[name].Run(ctx, *seed, *quick, *workers)
		if err != nil {
			// Interruption is graceful: everything completed so far has
			// already printed — report the partial coverage and stop.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Printf("[interrupted during %s: %d/%d experiments completed in %v]\n",
					name, completed, len(selected), time.Since(start).Round(time.Millisecond))
				return nil
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		completed++
		fmt.Printf("%s\n[%s took %v]\n\n", out.Text, name, time.Since(expStart).Round(time.Millisecond))
	}
	fmt.Printf("[%d experiments took %v total]\n", len(selected), time.Since(start).Round(time.Millisecond))
	return nil
}

// runCertify runs the certification mode: one cell when a scenario is named
// (under its registry policy, or once per -certify-policies entry), the full
// scenario-registry × policy matrix otherwise. Cells print as they finish —
// an interrupted matrix keeps its completed rows.
func runCertify(ctx context.Context, scenarioName, policyList string, cell certify.Config, jsonOut bool) error {
	var policies []string
	if policyList != "" {
		for _, p := range strings.Split(policyList, ",") {
			policies = append(policies, strings.TrimSpace(p))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	emit := func(res *certify.Result, wall time.Duration) error {
		if jsonOut {
			return enc.Encode(res)
		}
		fmt.Printf("  %-44s %-10s %-22s %d/%d seeds  %d crashes  %d violating  est %.3g  [%.3g, %.3g]  %v\n",
			res.Scenario, res.Policy, res.Verdict, res.Seeds, res.MaxSeeds,
			res.Crashes, res.Violations, res.Estimate, res.Lo, res.Hi, wall.Round(time.Millisecond))
		if res.Err != "" {
			fmt.Printf("    error: %s\n", res.Err)
		}
		return nil
	}

	// Single cell: a named scenario under its own registry policy.
	if scenarioName != "" && len(policies) <= 1 {
		if len(policies) == 1 {
			cell.Overrides.Policy = policies[0]
		}
		cell.Scenario = scenarioName
		start := time.Now()
		res, err := certify.Certify(ctx, cell)
		if res == nil {
			return err
		}
		if !jsonOut {
			fmt.Printf("Certification: P(crash ∨ φInv violation) < %v at %v confidence (%s mode, %s interval)\n",
				res.Threshold, res.Confidence, res.Mode, res.Method)
		}
		if emitErr := emit(res, time.Since(start)); emitErr != nil {
			return emitErr
		}
		if err != nil && !jsonOut {
			fmt.Printf("[interrupted after %d seeds]\n", res.Seeds)
		}
		return nil
	}

	// Matrix mode. Sweep the grid cell by cell (each cell parallelises
	// internally) so rows stream out as they settle.
	var scenarios []string
	if scenarioName != "" {
		scenarios = []string{scenarioName}
	}
	if !jsonOut {
		fmt.Printf("Certification matrix: P(crash ∨ φInv violation) < %v at %v confidence\n", cell.Threshold, cmpConfidence(cell.Confidence))
	}
	mc := certify.MatrixConfig{Scenarios: scenarios, Policies: policies, Cell: cell}
	start := time.Now()
	res, err := certify.Matrix(ctx, mc)
	if res == nil {
		return err
	}
	// Matrix wall time is sequential and not timed per cell: the text view
	// shows each row the sweep's average, a cosmetic column the JSON rows
	// leave out.
	per := time.Duration(0)
	if len(res.Cells) > 0 {
		per = time.Since(start) / time.Duration(len(res.Cells))
	}
	for i := range res.Cells {
		if emitErr := emit(&res.Cells[i], per); emitErr != nil {
			return emitErr
		}
	}
	if !jsonOut {
		fmt.Printf("[%d cells: %d certified, %d refuted, %d inconclusive, %d errored in %v]\n",
			len(res.Cells), res.Certified, res.Refuted, res.Inconclusive, res.Errored,
			time.Since(start).Round(time.Millisecond))
	}
	if err != nil && !jsonOut {
		fmt.Printf("[interrupted after %d cells]\n", len(res.Cells))
	}
	return nil
}

// cmpConfidence renders the effective confidence (zero means the default).
func cmpConfidence(c float64) float64 {
	if c == 0 {
		return certify.DefaultConfidence
	}
	return c
}
