package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	soterobs "repro/internal/obs"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/plant"
	"repro/internal/sim"
	"repro/internal/store"
)

// seedSweep builds a mission per seed from a shared builder.
func seedSweep(name string, seeds []int64, build func(seed int64) (sim.RunConfig, error)) []Mission {
	missions := make([]Mission, len(seeds))
	for i, seed := range seeds {
		missions[i] = Mission{
			Name:  fmt.Sprintf("%s/seed-%d", name, seed),
			Seed:  seed,
			Build: func() (sim.RunConfig, error) { return build(seed) },
		}
	}
	return missions
}

// surveillanceMission builds a short, fully isolated surveillance run.
func surveillanceMission(seed int64) (sim.RunConfig, error) {
	mcfg := mission.DefaultStackConfig(seed)
	mcfg.App = mission.AppConfig{Points: []geom.Vec3{
		geom.V(3, 3, 2), geom.V(46, 46, 2),
	}}
	st, err := mission.Build(mcfg)
	if err != nil {
		return sim.RunConfig{}, err
	}
	return sim.RunConfig{
		Stack:    st,
		Initial:  plant.State{Pos: geom.V(3, 3, 2), Battery: 1},
		Duration: 5 * time.Second,
		Seed:     seed,
	}, nil
}

// TestFleetSmoke runs a small batch across several workers (under -race this
// proves per-run isolation: each worker builds its own stack, store,
// executor and RNG).
func TestFleetSmoke(t *testing.T) {
	missions := seedSweep("smoke", Seeds(1, 6), surveillanceMission)
	rep := Run(context.Background(), missions, Options{Workers: 4})
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if rep.Missions != 6 || rep.Failed != 0 {
		t.Fatalf("missions=%d failed=%d", rep.Missions, rep.Failed)
	}
	if rep.Crashes != 0 {
		t.Errorf("protected missions crashed: %d", rep.Crashes)
	}
	if rep.SimTime < 6*5*time.Second {
		t.Errorf("aggregate sim time = %v, want ≥ 30s", rep.SimTime)
	}
	for i, res := range rep.Results {
		if res.Name != missions[i].Name || res.Seed != missions[i].Seed {
			t.Errorf("result %d out of order: %q seed %d", i, res.Name, res.Seed)
		}
		if res.Metrics.Duration == 0 {
			t.Errorf("result %d has no metrics", i)
		}
	}
	if got := rep.Format(); got == "" {
		t.Error("empty Format")
	}
}

// TestFleetDeterministic proves a batch's verdicts are identical at any
// worker count: per-run isolation means parallelism cannot change results.
func TestFleetDeterministic(t *testing.T) {
	run := func(workers int) []MissionResult {
		rep := Run(context.Background(), seedSweep("det", Seeds(42, 4), surveillanceMission), Options{Workers: workers})
		if err := rep.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		a, b := serial[i], parallel[i]
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("mission %d metrics diverge between 1 and 4 workers:\n%+v\nvs\n%+v", i, a.Metrics, b.Metrics)
		}
	}
}

// TestFleetAggregates checks the report's switch accounting against the
// per-result metrics.
func TestFleetAggregates(t *testing.T) {
	missions := seedSweep("agg", Seeds(7, 3), func(seed int64) (sim.RunConfig, error) {
		cfg, err := surveillanceMission(seed)
		cfg.Duration = 8 * time.Second
		return cfg, err
	})
	rep := Run(context.Background(), missions, Options{Workers: 2})
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	wantDiseng := 0
	for _, res := range rep.Results {
		wantDiseng += res.Metrics.TotalDisengagements()
	}
	if rep.Disengagements != wantDiseng {
		t.Errorf("report disengagements = %d, results say %d", rep.Disengagements, wantDiseng)
	}
	for _, res := range rep.Results {
		for name := range res.Metrics.Modules {
			s := rep.ModuleStats(name)
			if s.ACTime+s.SCTime == 0 {
				t.Errorf("module %q accumulated no mode time", name)
			}
		}
	}
}

// TestFleetFailuresIsolated checks that one failing mission neither aborts
// the batch nor contaminates the other verdicts.
func TestFleetFailuresIsolated(t *testing.T) {
	boom := errors.New("boom")
	missions := []Mission{
		{Name: "ok-1", Seed: 1, Build: func() (sim.RunConfig, error) { return surveillanceMission(1) }},
		{Name: "bad", Seed: 2, Build: func() (sim.RunConfig, error) { return sim.RunConfig{}, boom }},
		{Name: "ok-2", Seed: 3, Build: func() (sim.RunConfig, error) { return surveillanceMission(3) }},
	}
	rep := Run(context.Background(), missions, Options{Workers: 3})
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	if !errors.Is(rep.FirstErr(), boom) {
		t.Errorf("FirstErr = %v", rep.FirstErr())
	}
	if rep.Results[0].Err != nil || rep.Results[2].Err != nil {
		t.Error("healthy missions reported errors")
	}
	if rep.Results[1].Err == nil {
		t.Error("failing mission reported no error")
	}
}

// TestMapOrderAndBound: Run collects results in mission order whichever
// worker finishes first, and never runs more missions at once than its
// worker bound.
func TestMapOrderAndBound(t *testing.T) {
	var inFlight, peak atomic.Int32
	const workers, n = 3, 20
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	missions := seedSweep("order", seeds, func(seed int64) (sim.RunConfig, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Duration(n-seed) * 100 * time.Microsecond)
		inFlight.Add(-1)
		return sim.RunConfig{}, fmt.Errorf("built-%d", seed)
	})
	rep := Run(context.Background(), missions, Options{Workers: workers})
	for i, res := range rep.Results {
		if res.Name != missions[i].Name || res.Err == nil || res.Err.Error() != fmt.Sprintf("built-%d", i) {
			t.Fatalf("result %d = %q %v, want %q built-%d", i, res.Name, res.Err, missions[i].Name, i)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds bound %d", p, workers)
	}
}

func TestMapEmpty(t *testing.T) {
	rep := Run(context.Background(), nil, Options{Workers: 4})
	if len(rep.Results) != 0 || rep.Missions != 0 || rep.Failed != 0 || rep.FirstErr() != nil {
		t.Fatalf("empty batch reported %+v", rep)
	}
}

// TestRunCancelledBatchContract: cancelling a batch leaves no silent
// zero-value "successes" — every mission either ran (and carries its own
// verdict or cancellation error) or is explicitly marked with the context's
// error — and FirstErr surfaces the cancellation.
func TestRunCancelledBatchContract(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	missions := seedSweep("cancel", Seeds(1, 12), func(seed int64) (sim.RunConfig, error) {
		started <- struct{}{}
		cfg, err := surveillanceMission(seed)
		cfg.Duration = time.Hour // far longer than the test; only cancellation ends it
		return cfg, err
	})
	go func() {
		<-started // at least one mission is in flight
		cancel()
	}()
	rep := Run(ctx, missions, Options{Workers: 2})
	if rep.Missions != len(missions) || len(rep.Results) != len(missions) {
		t.Fatalf("missions=%d results=%d, want %d", rep.Missions, len(rep.Results), len(missions))
	}
	if rep.Failed == 0 {
		t.Fatal("cancelled batch reported zero failures")
	}
	if err := rep.FirstErr(); !errors.Is(err, context.Canceled) {
		t.Fatalf("FirstErr = %v, want context.Canceled", err)
	}
	for i, res := range rep.Results {
		if res.Name != missions[i].Name || res.Seed != missions[i].Seed {
			t.Errorf("result %d lost its identity: %q seed %d", i, res.Name, res.Seed)
		}
		// A mission that reports success must have actually simulated.
		if res.Err == nil && res.Metrics.Duration == 0 {
			t.Errorf("result %d is a silent zero-value success", i)
		}
	}
}

// TestMapCancelledFeed: missions never handed to a worker fail with the
// context's error instead of silently returning zero values.
func TestMapCancelledFeed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the feed starts
	missions := seedSweep("feed", Seeds(1, 8), func(int64) (sim.RunConfig, error) {
		return sim.RunConfig{}, ctx.Err()
	})
	rep := Run(ctx, missions, Options{Workers: 2})
	if len(rep.Results) != len(missions) || rep.Failed != len(missions) {
		t.Fatalf("results=%d failed=%d, want %d of each", len(rep.Results), rep.Failed, len(missions))
	}
	for i, res := range rep.Results {
		if res.Name != missions[i].Name || !errors.Is(res.Err, context.Canceled) {
			t.Errorf("result %d = %q %v, want %q context.Canceled", i, res.Name, res.Err, missions[i].Name)
		}
	}
}

// TestFleetEventStreamsDeterministicAcrossWorkers: with a recorder attached
// to every mission, the per-mission event sequences are identical at any
// worker count — the event stream inherits the fleet engine's isolation.
// Run under -race this also proves observer plumbing shares no state.
func TestFleetEventStreamsDeterministicAcrossWorkers(t *testing.T) {
	streams := func(workers int) [][]byte {
		recs := make([]*soterobs.Recorder, 4)
		missions := seedSweep("stream", Seeds(9, 4), surveillanceMission)
		for i := range missions {
			i := i
			build := missions[i].Build
			recs[i] = soterobs.NewRecorder(1 << 16)
			missions[i].Build = func() (sim.RunConfig, error) {
				cfg, err := build()
				cfg.Observers = append(cfg.Observers, recs[i])
				return cfg, err
			}
		}
		rep := Run(context.Background(), missions, Options{Workers: workers})
		if err := rep.FirstErr(); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(recs))
		for i, rec := range recs {
			var buf bytes.Buffer
			w := soterobs.NewJSONLWriter(&buf)
			for _, e := range rec.Events() {
				w.OnEvent(e)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatalf("mission %d recorded no events", i)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	serial, parallel := streams(1), streams(4)
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("mission %d event streams diverge between 1 and 4 workers (%d vs %d bytes)",
				i, len(serial[i]), len(parallel[i]))
		}
	}
}

// keyedSweep is a seedSweep whose missions carry distinct store keys and
// count their Build calls.
func keyedSweep(name string, n int, built *atomic.Int32) []Mission {
	missions := seedSweep(name, Seeds(1, n), surveillanceMission)
	for i := range missions {
		build := missions[i].Build
		missions[i].Key = fmt.Sprintf("%s%08x", name, i)
		missions[i].Build = func() (sim.RunConfig, error) {
			built.Add(1)
			return build()
		}
	}
	return missions
}

// TestReuseAndOnResultHooks: missions whose key the store holds skip Build
// entirely and come back marked Cached under their own name and seed; the
// others simulate and fill the store; fresh and stored verdicts both flow
// through OnResult and into the aggregates, and a rerun is served whole from
// the store, byte-identical to the fresh results.
func TestReuseAndOnResultHooks(t *testing.T) {
	var built atomic.Int32
	missions := keyedSweep("a0", 4, &built)
	st := store.NewTiered(store.Options{})
	defer st.Close()
	canned, err := store.Payload{Metrics: sim.Metrics{Duration: 5 * time.Second, DistanceFlown: 123}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(missions); i += 2 {
		st.Put(context.Background(), missions[i].Key, canned) // even missions come from the store
	}
	var observed, cachedSeen atomic.Int32
	opts := Options{
		Workers: 2,
		Store:   st,
		OnResult: func(i int, m Mission, res MissionResult) {
			observed.Add(1)
			if res.Cached {
				cachedSeen.Add(1)
			}
		},
	}
	rep := Run(context.Background(), missions, opts)
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != 2 {
		t.Errorf("built %d stacks, want 2 (odd missions only)", got)
	}
	if got := observed.Load(); got != 4 {
		t.Errorf("OnResult saw %d results, want 4", got)
	}
	if got := cachedSeen.Load(); got != 2 {
		t.Errorf("OnResult saw %d cached results, want 2", got)
	}
	for i, res := range rep.Results {
		if wantCached := i%2 == 0; res.Cached != wantCached {
			t.Errorf("mission %d: Cached = %v, want %v", i, res.Cached, wantCached)
		}
		if res.Name != missions[i].Name || res.Seed != missions[i].Seed {
			t.Errorf("mission %d: result identity %q/%d diverges from mission %q/%d",
				i, res.Name, res.Seed, missions[i].Name, missions[i].Seed)
		}
	}
	if rep.Results[0].Metrics.DistanceFlown != 123 {
		t.Errorf("stored metrics not served: %+v", rep.Results[0].Metrics)
	}
	if rep.SimTime != 4*5*time.Second {
		t.Errorf("aggregate sim time = %v, want 20s", rep.SimTime)
	}
	if got := st.Stats().Fills; got != 2 {
		t.Errorf("store fills = %d, want 2 (the simulated missions)", got)
	}

	again := Run(context.Background(), missions, opts)
	if got := built.Load(); got != 2 {
		t.Errorf("rerun built %d stacks in total, want 2 (all served from the store)", got)
	}
	for i := range again.Results {
		a, b := rep.Results[i], again.Results[i]
		if !b.Cached || !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("mission %d: stored rerun diverges (cached=%v)", i, b.Cached)
		}
	}
}

// TestStoreFillProtocol: a mission leads its key's fill only for a clean
// result — a failed mission aborts the fill, a corrupt entry is simulated
// around without a fill and then overwritten with the clean result, and
// keyless missions never touch the store. No fill outlives its batch.
func TestStoreFillProtocol(t *testing.T) {
	var built atomic.Int32
	missions := keyedSweep("b0", 3, &built)
	missions[0].Build = func() (sim.RunConfig, error) { return sim.RunConfig{}, errors.New("boom") }
	missions[2].Key = ""
	st := store.NewTiered(store.Options{})
	defer st.Close()
	st.Put(context.Background(), missions[1].Key, []byte("not a payload"))
	rep := Run(context.Background(), missions, Options{Workers: 2, Store: st})
	if rep.Results[0].Err == nil || rep.Results[1].Err != nil || rep.Results[2].Err != nil {
		t.Fatalf("errors = %v, %v, %v; want only mission 0 failing",
			rep.Results[0].Err, rep.Results[1].Err, rep.Results[2].Err)
	}
	if rep.Results[1].Cached || built.Load() != 2 {
		t.Errorf("corrupt entry: cached=%v, built %d; want it simulated", rep.Results[1].Cached, built.Load())
	}
	s := st.Stats()
	if s.Fills != 0 || s.Aborts != 1 || s.Inflight != 0 {
		t.Errorf("fills %d aborts %d inflight %d; want 0, 1, 0", s.Fills, s.Aborts, s.Inflight)
	}
	if s.Memory.Hits+s.Memory.Misses != 2 {
		t.Errorf("store probed %d times, want 2 (keyless mission bypasses it)", s.Memory.Hits+s.Memory.Misses)
	}
	// The repaired entry now serves the fresh verdict.
	again := Run(context.Background(), missions[1:2], Options{Workers: 1, Store: st})
	if r := again.Results[0]; r.Err != nil || !r.Cached || !reflect.DeepEqual(r.Metrics, rep.Results[1].Metrics) {
		t.Errorf("rerun of the corrupt key: cached=%v err=%v, metrics match %v; want a cached hit of the fresh verdict",
			r.Cached, r.Err, reflect.DeepEqual(r.Metrics, rep.Results[1].Metrics))
	}
	if built.Load() != 2 {
		t.Errorf("rerun built a stack (%d builds in total, want 2)", built.Load())
	}
	if got := st.Stats().Repairs; got != 1 {
		t.Errorf("store repairs = %d, want 1 (the corrupt entry, overwritten once)", got)
	}
}

// TestMissionWallStamped: every result carries the wall time its worker
// spent on it, both for fresh simulations and for store hits, whose Wall is
// the lookup latency — here a wait on another holder's in-flight fill.
func TestMissionWallStamped(t *testing.T) {
	var built atomic.Int32
	missions := keyedSweep("c0", 2, &built)
	st := store.NewTiered(store.Options{})
	defer st.Close()
	raw, err := store.Payload{Metrics: sim.Metrics{Duration: time.Second}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	missions[0].Key = "" // simulated fresh
	_, fill := st.Acquire(context.Background(), missions[1].Key)
	go func() {
		time.Sleep(20 * time.Millisecond)
		fill.Complete(context.Background(), raw)
	}()
	rep := Run(context.Background(), missions, Options{Workers: 2, Store: st})
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	fresh, hit := rep.Results[0], rep.Results[1]
	if fresh.Cached || fresh.Wall <= 0 {
		t.Errorf("fresh mission: Cached=%v Wall=%v, want uncached with Wall > 0", fresh.Cached, fresh.Wall)
	}
	if !hit.Cached || hit.Wall < time.Millisecond {
		t.Errorf("stored mission: Cached=%v Wall=%v, want cached with Wall ≥ 1ms", hit.Cached, hit.Wall)
	}
}
