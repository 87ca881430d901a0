package service

import (
	"testing"
	"time"

	"repro/internal/scenario"
)

// sweepSpecs builds one job per registered scenario — a registry-wide sweep
// with every mission scaled down to the given length.
func sweepSpecs(duration time.Duration, seeds []int64) []JobSpec {
	names := scenario.Names()
	specs := make([]JobSpec, 0, len(names))
	for _, name := range names {
		specs = append(specs, JobSpec{
			Scenario:  name,
			Overrides: Overrides{Duration: Duration(duration)},
			Seeds:     seeds,
		})
	}
	return specs
}

// runSweep submits every job and waits for the last to finish, failing fast
// on any non-done terminal state.
func runSweep(tb testing.TB, svc *Server, specs []JobSpec) (done, cached int) {
	tb.Helper()
	jobs := make([]*Job, 0, len(specs))
	for _, spec := range specs {
		job, err := svc.Submit(spec)
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		// The event stream closes exactly when the job reaches a terminal
		// state, so draining it is a completion wait without polling.
		replay, live, cancel := job.Subscribe(StreamKinds, 16)
		_ = replay
		for range live {
		}
		cancel()
		view := job.view()
		if view.Status != StatusDone {
			tb.Fatalf("job %s (%s): %s (%s)", job.ID(), view.Scenario, view.Status, view.Error)
		}
		done += view.Cells.Done
		cached += view.Cells.Cached
	}
	return done, cached
}

// TestWarmCacheSpeedup enforces the serving layer's headline property: a
// repeated registry-wide sweep is answered from the deterministic result
// cache at least 10x faster than the cold run that populated it.
func TestWarmCacheSpeedup(t *testing.T) {
	svc, err := New(Config{JobConcurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	specs := sweepSpecs(2*time.Second, []int64{1, 2})

	coldStart := time.Now()
	doneCold, cachedCold := runSweep(t, svc, specs)
	cold := time.Since(coldStart)
	if cachedCold != 0 {
		t.Fatalf("cold sweep hit the cache %d times", cachedCold)
	}

	warmStart := time.Now()
	doneWarm, cachedWarm := runSweep(t, svc, specs)
	warm := time.Since(warmStart)
	if doneWarm != doneCold || cachedWarm != doneWarm {
		t.Fatalf("warm sweep: %d/%d cells cached, want all %d", cachedWarm, doneWarm, doneCold)
	}
	t.Logf("registry-wide sweep: cold %v, warm %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
	if warm*10 > cold {
		t.Errorf("warm sweep %v not ≥10x faster than cold %v", warm, cold)
	}
}

// BenchmarkRegistrySweep measures the registry-wide sweep cold (every cell
// simulated) and warm (every cell answered from the deterministic result
// store) — the speedup is the serving layer's reason to exist.
func BenchmarkRegistrySweep(b *testing.B) {
	specs := sweepSpecs(time.Second, []int64{1})
	newServer := func(b *testing.B) *Server {
		svc, err := New(Config{JobConcurrency: 2})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := newServer(b)
			b.StartTimer()
			runSweep(b, svc, specs)
			b.StopTimer()
			svc.Close()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		svc := newServer(b)
		defer svc.Close()
		runSweep(b, svc, specs) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweep(b, svc, specs)
		}
	})
}
