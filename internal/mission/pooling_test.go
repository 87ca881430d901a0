package mission_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
	"repro/internal/plant"
	"repro/internal/sim"
)

// pooledOrFreshMission builds the standard sweep mission with the artifact
// pool either enabled (Build) or bypassed (BuildFresh).
func pooledOrFreshMission(seed int64, fresh bool) (sim.RunConfig, error) {
	mcfg := mission.DefaultStackConfig(seed)
	mcfg.App = mission.AppConfig{Points: []geom.Vec3{
		geom.V(3, 3, 2), geom.V(46, 46, 2),
	}}
	build := mission.Build
	if fresh {
		build = mission.BuildFresh
	}
	st, err := build(mcfg)
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

// pooledSweepStreams runs the 4-mission sweep and returns the per-mission
// JSONL event streams plus the results.
func pooledSweepStreams(t *testing.T, workers int, fresh bool) ([][]byte, []fleet.MissionResult) {
	t.Helper()
	const n = 4
	recs := make([]*obs.Recorder, n)
	missions := make([]fleet.Mission, n)
	for i, seed := range fleet.Seeds(17, n) {
		recs[i] = obs.NewRecorder(1 << 16)
		missions[i] = fleet.Mission{
			Name: fmt.Sprintf("pool/seed-%d", seed),
			Seed: seed,
			Build: func() (sim.RunConfig, error) {
				cfg, err := pooledOrFreshMission(seed, fresh)
				cfg.Observers = append(cfg.Observers, recs[i])
				return cfg, err
			},
		}
	}
	rep := fleet.Run(context.Background(), missions, fleet.Options{Workers: workers})
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i, rec := range recs {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
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
	return out, rep.Results
}

// TestFleetPooledStacksByteIdenticalToFresh is the determinism gate on the
// mission artifact pool: sweeps whose stacks share pooled analyzers, grids
// and planners must produce event streams and reports byte-identical to
// sweeps that rebuild every artifact from scratch, at every worker count.
// Run under -race this also proves the pooled artifacts are safe to share
// across concurrent workers.
func TestFleetPooledStacksByteIdenticalToFresh(t *testing.T) {
	freshStreams, freshResults := pooledSweepStreams(t, 1, true)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		pooled, pooledResults := pooledSweepStreams(t, workers, false)
		for i := range freshStreams {
			if !bytes.Equal(freshStreams[i], pooled[i]) {
				t.Errorf("workers=%d mission %d: pooled event stream differs from fresh (%d vs %d bytes)",
					workers, i, len(pooled[i]), len(freshStreams[i]))
			}
		}
		for i := range freshResults {
			if !reflect.DeepEqual(freshResults[i].Metrics, pooledResults[i].Metrics) {
				t.Errorf("workers=%d mission %d: pooled metrics diverge from fresh:\n%+v\nvs\n%+v",
					workers, i, pooledResults[i].Metrics, freshResults[i].Metrics)
			}
		}
	}
}
