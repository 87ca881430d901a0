package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogs below
// are the benchmark's contract: BENCHMARK.json lists the same names and
// units, and bench_test.go holds the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every untraced run (--trace 0), on every workload.
// An "op" is a mission on the sweeps and a job on serve-mix; README.md
// gives each workload's tail percentile.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer is printed by every traced run (--trace 1), on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// Workload-specific end-to-end views, from the untraced half of the run.
	{"missions_per_s", "1/s"},
	{"mission_p50_ms", "ms"},
	{"mission_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"warm_job_p50_ms", "ms"},
	{"warm_job_tail_ms", "ms"},
	{"fresh_job_p50_ms", "ms"},
	{"fresh_job_tail_ms", "ms"},
	{"failed_frac", "ratio"},

	{"fleet.busy_frac", "ratio"},
	{"fleet.tail_idle_ms", "ms"},
	{"scenario.build_us", "us"},
	{"mission.artifacts_cold_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"runtime.firings", "count"},
	{"runtime.self_ms", "ms"},
	{"rta.dm.firings", "count"},
	{"rta.dm.self_ms", "ms"},
	{"rta.dm.us_per_firing", "us"},
	{"rta.switches", "count"},
	{"rta.clamped", "count"},
	{"controller.ac.self_ms", "ms"},
	{"controller.sc.self_ms", "ms"},
	{"controller.firings", "count"},
	{"plan.rrtstar.firings", "count"},
	{"plan.rrtstar.self_ms", "ms"},
	{"plan.rrtstar.ms_per_firing", "ms"},
	{"plan.astar.firings", "count"},
	{"plan.astar.self_ms", "ms"},
	{"mission.nodes.firings", "count"},
	{"mission.nodes.self_ms", "ms"},
	{"plant.substeps", "count"},
	{"plant.self_ms", "ms"},
	{"plant.us_per_substep", "us"},
	{"go.alloc_bytes_per_mission", "bytes"},
	{"go.allocs_per_mission", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},

	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.close_lag_ms", "ms"},
	{"service.report_ms", "ms"},
	{"service.report_bytes", "bytes"},
	{"service.refused", "count"},
	{"store.memory.hit_ratio", "ratio"},
	{"store.disk.hit_ratio", "ratio"},
	{"store.peers.hit_ratio", "ratio"},
	{"store.cached_cell_ms", "ms"},
	{"store.fresh_cell_ms", "ms"},
	{"store.fills", "count"},
	{"store.fill_ratio", "ratio"},
	{"store.collapsed", "count"},
	{"store.aborts", "count"},
	{"store.errors", "count"},
	{"store.quarantined", "count"},
	{"store.memory.evictions", "count"},
	{"store.disk.evictions", "count"},

	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// zeroFamily sets to 0 the per-layer metrics, named by prefix, of layers the
// workload does not exercise.
func zeroFamily(m map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, set := m[d.name]; !set && strings.HasPrefix(d.name, p) {
				m[d.name] = 0
			}
		}
	}
}

// quantile returns the q-quantile of xs (linear interpolation between the
// closest ranks), or 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantiles summarises a latency sample for the result file.
func quantiles(xs []float64) map[string]float64 {
	return map[string]float64{
		"p50": quantile(xs, 0.5), "p90": quantile(xs, 0.9), "p95": quantile(xs, 0.95), "p99": quantile(xs, 0.99),
	}
}

// beyond is how many of n samples lie strictly above the q-quantile — the
// tail percentile is only meaningful with at least ten.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// goStats is a snapshot of the Go runtime counters the go.* metrics are
// deltas of.
type goStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcPause                            float64 // seconds
}

// goMetrics renders the go.* metrics of a phase that completed n missions
// (served cells on serve-mix).
func goMetrics(m map[string]float64, before, after goStats, n int) {
	m["go.alloc_bytes_per_mission"] = ratio(float64(after.allocBytes-before.allocBytes), float64(n))
	m["go.allocs_per_mission"] = ratio(float64(after.allocObjects-before.allocObjects), float64(n))
	m["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["go.gc_pause_ms"] = 1000 * (after.gcPause - before.gcPause)
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	st := goStats{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
	}
	// The pause histogram has no exact sum; bucket midpoints (the finite
	// edge for the open-ended buckets) are well inside a microsecond.
	h := samples[3].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		st.gcPause += float64(c) * (lo + hi) / 2
	}
	return st
}
