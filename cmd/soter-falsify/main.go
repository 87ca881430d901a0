// Command soter-falsify runs adversarial falsification campaigns over the
// scenario × policy × seed space (internal/falsify): it hunts configurations
// under which the RTA story breaks — crashes, φInv violations, clamp-storms —
// and emits each find as a self-contained, replayable counterexample.
//
// Usage:
//
//	soter-falsify [-scenario surveillance-city] [-strategy guided:8]
//	              [-seed 1] [-budget 64] [-duration 20s] [-base '{...}'] [-json]
//	              [-corpus testdata/falsified] [-register]
//	soter-falsify -replay testdata/falsified
//
// The second form replays a counterexample corpus and verifies every
// non-retired entry still falsifies — the regression direction of the same
// tool, suitable for CI.
//
// -base pins a campaign-wide scenario.Delta in the JSON form of
// soter-serve's falsify "base" field (unknown keys are refused, and so is a
// non-positive value for a knob the Spec reads as "zero means default"). With -strategy schedule[:N] the campaign model-checks
// node interleavings of the base configuration (exhaustively, or N random
// ones); a slim base keeps that tree tractable, e.g.
// -base '{"no_planner_module":true,"no_battery_module":true}'.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/falsify"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("soter-falsify: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		scenarioName = flag.String("scenario", "surveillance-city", "base scenario to search around")
		strategy     = flag.String("strategy", "", "search strategy spec: "+strings.Join(falsify.StrategyNames(), " | ")+" (default "+falsify.DefaultStrategyName+")")
		seed         = flag.Int64("seed", 1, "campaign seed (mutations and run seeds derive from it)")
		budget       = flag.Int("budget", falsify.DefaultBudget, "execution budget (candidate runs)")
		duration     = flag.Duration("duration", 0, "per-candidate mission horizon override (0 = scenario default)")
		base         = flag.String("base", "", "campaign-wide scenario.Delta pin as JSON (the soter-serve falsify \"base\" field)")
		policies     = flag.String("policies", "", "comma-separated policy mutation pool (default: every registered policy)")
		clampStorm   = flag.Int("clamp-storm", 0, "clamp-storm threshold (0 = default, negative disables the category)")
		maxCE        = flag.Int("max-counterexamples", 0, "bound on the ranked result list (0 = default)")
		workers      = flag.Int("workers", 0, "parallel candidate evaluations (0 = GOMAXPROCS; never changes results)")
		register     = flag.Bool("register", false, "auto-register finds as falsified/<hash> scenarios")
		corpusDir    = flag.String("corpus", "", "write found counterexamples into this corpus directory")
		note         = flag.String("note", "", "provenance note stored with corpus entries")
		replayDir    = flag.String("replay", "", "replay the corpus at this directory instead of searching")
		jsonOut      = flag.Bool("json", false, "emit the campaign result as JSON on stdout")
		trace        = flag.Bool("trace", false, "stream campaign events as JSON Lines on stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replayDir != "" {
		return replayCorpus(ctx, *replayDir, *jsonOut)
	}

	cfg := falsify.Config{
		Scenario:           *scenarioName,
		Strategy:           *strategy,
		Seed:               *seed,
		Budget:             *budget,
		Workers:            *workers,
		ClampStorm:         *clampStorm,
		MaxCounterexamples: *maxCE,
		AutoRegister:       *register,
	}
	if *base != "" {
		dec := json.NewDecoder(strings.NewReader(*base))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg.Base); err != nil {
			return fmt.Errorf("-base: %w", err)
		}
	}
	// -duration wins over the -base delta's duration_ns.
	if *duration != 0 {
		cfg.Base.Duration = duration
	}
	if *policies != "" {
		for _, p := range strings.Split(*policies, ",") {
			cfg.Policies = append(cfg.Policies, strings.TrimSpace(p))
		}
	}
	var sink *obs.JSONLWriter
	if *trace {
		sink = obs.NewJSONLWriter(os.Stderr)
		cfg.Observers = append(cfg.Observers, sink)
	}

	start := time.Now()
	res, err := falsify.Campaign(ctx, cfg)
	if sink != nil {
		if cerr := sink.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if err == context.Canceled && res != nil {
		fmt.Fprintln(os.Stderr, "interrupted; reporting the campaign so far")
	} else if err != nil {
		return err
	}

	if *corpusDir != "" && len(res.Counterexamples) > 0 {
		paths, werr := falsify.WriteCorpus(*corpusDir, res.Entries(*note, cfg.ClampStorm))
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "wrote %d corpus entries under %s\n", len(paths), *corpusDir)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("scenario:        %s\n", res.Scenario)
	fmt.Printf("strategy:        %s (seed %d)\n", res.Strategy, res.Seed)
	fmt.Printf("executions:      %d / %d budget (%d errored)\n", res.Executions, res.Budget, res.Errored)
	fmt.Printf("best severity:   %.1f\n", res.BestSeverity)
	fmt.Printf("wall time:       %v\n", time.Since(start).Round(time.Millisecond))
	if len(res.Counterexamples) == 0 {
		fmt.Println("\nno counterexamples found.")
		return nil
	}
	fmt.Printf("\n%d counterexamples (ranked):\n", len(res.Counterexamples))
	for _, ce := range res.Counterexamples {
		fmt.Printf("  %s\n", ce)
	}
	return nil
}

// replayCorpus re-executes every corpus entry and verifies each non-retired
// one still falsifies under its own category; a clean replay of a live entry
// is a regression-suite failure.
func replayCorpus(ctx context.Context, dir string, jsonOut bool) error {
	entries, err := falsify.LoadCorpus(dir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Printf("corpus %s is empty; nothing to replay\n", dir)
		return nil
	}
	type row struct {
		Fingerprint string          `json:"fingerprint"`
		Category    string          `json:"category"`
		Retired     bool            `json:"retired,omitempty"`
		Holds       bool            `json:"holds"`
		Verdict     falsify.Verdict `json:"verdict,omitzero"`
		Error       string          `json:"error,omitempty"`
	}
	var rows []row
	failed := 0
	for _, e := range entries {
		r := row{Fingerprint: e.Fingerprint, Category: e.Category, Retired: e.Retired}
		v, skipped, rerr := e.Replay(ctx)
		switch {
		case rerr != nil:
			// Includes retirement without a reason: the corpus layer rejects
			// entries that retire without documenting why.
			r.Error = rerr.Error()
			failed++
		case skipped:
			r.Holds = true // retired entries are documentation, not assertions
		default:
			r.Verdict = v
			r.Holds = e.StillFalsifies(v)
			if !r.Holds {
				failed++
			}
		}
		rows = append(rows, r)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		for _, r := range rows {
			switch {
			case r.Retired:
				fmt.Printf("  retired %s (%s)\n", r.Fingerprint, r.Category)
			case r.Error != "":
				fmt.Printf("  ERROR   %s (%s): %s\n", r.Fingerprint, r.Category, r.Error)
			case r.Holds:
				fmt.Printf("  holds   %s (%s)\n", r.Fingerprint, r.Category)
			default:
				fmt.Printf("  CLEAN   %s (%s): no longer falsifies — fix confirmed? retire the entry\n", r.Fingerprint, r.Category)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d corpus entries did not replay as filed", failed, len(entries))
	}
	fmt.Printf("all %d corpus entries replayed as filed\n", len(entries))
	return nil
}
