package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the catalog %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workload {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}

// validName is the metric-name grammar later tooling relies on.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %s", d.name, validName)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	batchNames := func(seed int64) []string {
		b, err := newBench("sweep-plan", seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := range 3 {
			for _, m := range b.(*sweep).batch(i) {
				out = append(out, m.name())
			}
		}
		return out
	}
	if a, b := batchNames(7), batchNames(7); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different mission lists")
	}
	if reflect.DeepEqual(batchNames(7), batchNames(8)) {
		t.Error("different seeds gave the same mission list")
	}

	jobs := func(seed int64) []jobReq {
		m := newServeMix(seed, false)
		var out []jobReq
		for range 50 {
			for _, g := range m.gens {
				out = append(out, g.next())
			}
		}
		return out
	}
	a := jobs(7)
	if !reflect.DeepEqual(a, jobs(7)) {
		t.Error("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, jobs(8)) {
		t.Error("different seeds gave the same job sequence")
	}
	fresh := 0
	seen := map[int64]bool{}
	firstFresh := newServeMix(7, false).universeSeed(universeSeeds)
	for _, j := range a {
		if !j.fresh {
			continue
		}
		fresh++
		for _, s := range j.seeds {
			if seen[s] || s < firstFresh {
				t.Fatalf("fresh seed %d repeated or inside the universe", s)
			}
			seen[s] = true
		}
	}
	if fresh != len(a)/freshEvery {
		t.Errorf("%d fresh jobs of %d, want one in %d", fresh, len(a), freshEvery)
	}
}

func TestDigestCatchesPlantedVerdict(t *testing.T) {
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	s := smokeSweep(t, "sweep-motion")
	rep := s.runBatch(s.batch(0), 2, time.Time{}, 0, false).rep
	want := [][]string{verdicts(rep)}
	rep.Results[3].Metrics.Crashed = !rep.Results[3].Metrics.Crashed
	got := [][]string{verdicts(rep)}
	if n := mismatches(want, got); n != 1 {
		t.Errorf("planted one wrong verdict, mismatches found %d", n)
	}
	if digest(want) == digest(got) {
		t.Error("digest did not change with a planted wrong verdict")
	}

	// The serve-mix check holds warm cells to their prefill verdicts.
	m := newServeMix(1, true)
	k := cellKey{group: 2, seed: m.universeSeed(0)}
	m.ref = map[cellKey]string{k: "right"}
	o := newOutcome()
	m.check(o, &servePhase{jobs: []jobSample{{
		req: jobReq{group: 2, seeds: []int64{k.seed}}, cells: []cellResult{{seed: k.seed, verdict: "wrong"}},
	}}})
	if o.correct || o.failed != 1 {
		t.Errorf("wrong warm cell: correct=%t failed=%d, want false and 1", o.correct, o.failed)
	}
}

func TestEveryNodeMapsToALayer(t *testing.T) {
	for _, w := range []string{"sweep-plan", "sweep-motion"} {
		b, err := newBench(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range b.(*sweep).cells {
			cfg, err := spec.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := layerMap(cfg.Stack); err != nil {
				t.Errorf("%s: %v", spec.Name, err)
			}
		}
	}
	cfg, err := scenario.MustGet("corner-hazard-tour").Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nodeLayer(cfg.Stack, "no-such-node"); ok {
		t.Error("an unknown node name mapped to a layer")
	}
}

func smokeSweep(t *testing.T, name string) *sweep {
	t.Helper()
	b, err := newBench(name, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	return b.(*sweep)
}

// TestSmoke runs a smoke-sized configuration of every workload, untraced
// and traced, and checks the outputs and the split the workloads are
// designed for.
func TestSmoke(t *testing.T) {
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			b, err := newBench(w, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			plain, err := b.run(500*time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, plain, endToEnd, "setup_s", "max_rss_mb")
			traced, err := b.run(2*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, traced, perLayer)
			m := traced.metrics
			switch w {
			case "sweep-plan":
				if m["plan.rrtstar.firings"] == 0 {
					t.Error("sweep-plan ran no RRT*")
				}
				if plain.notes["digest"] != traced.notes["digest"] {
					t.Error("untraced and traced runs digest differently")
				}
			case "sweep-motion":
				if m["plan.rrtstar.firings"] != 0 {
					t.Errorf("sweep-motion fired RRT* %v times per mission", m["plan.rrtstar.firings"])
				}
				if m["trace.coverage"] < 0.5 || m["trace.coverage"] > 1.01 {
					t.Errorf("trace.coverage %v", m["trace.coverage"])
				}
			case "serve-mix":
				if m["store.fill_ratio"] != 1 {
					t.Errorf("store.fill_ratio %v, want 1", m["store.fill_ratio"])
				}
				for _, tier := range []string{"memory", "disk", "peers"} {
					if m["store."+tier+".hit_ratio"] == 0 {
						t.Errorf("no %s hits", tier)
					}
				}
			}
		})
	}
}

func expectMetrics(t *testing.T, o *outcome, defs []metricDef, setByMain ...string) {
	t.Helper()
	if !o.correct || o.failed != 0 || o.attempted == 0 {
		t.Fatalf("correct=%t attempted=%d failed=%d notes=%v", o.correct, o.attempted, o.failed, o.notes)
	}
	skip := map[string]bool{}
	for _, n := range setByMain {
		skip[n] = true
	}
	for _, d := range defs {
		if _, ok := o.metrics[d.name]; !ok && !skip[d.name] {
			t.Errorf("metric %s not measured", d.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v, want 4", got)
	}
	if beyond(1000, 0.99) != 10 || beyond(100, 0.9) != 10 {
		t.Error("beyond miscounts the tail")
	}
}
