package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/obs"
)

// observedRun builds a short jittery surveillance mission with the given
// extra observers attached.
func observedRun(t *testing.T, seed int64, observers ...obs.Observer) RunConfig {
	t.Helper()
	cfg := mission.DefaultStackConfig(seed)
	cfg.App = mission.AppConfig{Points: squareTour()}
	st, err := mission.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Stack:        st,
		Initial:      initialAt(geom.V(3, 3, 2)),
		Duration:     8 * time.Second,
		Seed:         seed,
		JitterProb:   0.004,
		JitterSCOnly: true,
		Label:        "observed-run",
		Observers:    observers,
	}
}

// TestModeSwitchEventsMatchSwitchLog: Result.Switches is exactly the run's
// obs.ModeSwitch stream as a caller's observer sees it — same order, same
// payloads. This is the acceptance contract tying -trace files to the
// switch log the experiments read.
func TestModeSwitchEventsMatchSwitchLog(t *testing.T) {
	rec := obs.NewRecorder(0)
	res, err := Run(observedRun(t, 11, rec))
	if err != nil {
		t.Fatal(err)
	}
	var fromEvents []obs.ModeSwitch
	for _, e := range rec.Events() {
		if sw, ok := e.(obs.ModeSwitch); ok {
			fromEvents = append(fromEvents, sw)
		}
	}
	if len(fromEvents) != len(res.Switches) {
		t.Fatalf("%d ModeSwitch events, switch log has %d", len(fromEvents), len(res.Switches))
	}
	if len(res.Switches) == 0 {
		t.Fatal("run produced no switches; the comparison is vacuous")
	}
	for i, sw := range res.Switches {
		if fromEvents[i] != sw {
			t.Errorf("event %d = %+v, switch log says %+v", i, fromEvents[i], sw)
		}
	}
}

// TestJSONLReplayReproducesMetrics: trace a run to JSONL, decode it, replay
// the decoded events through a fresh MetricsSink, and require the replayed
// metrics to equal the run's own — the round-trip that makes -trace files a
// faithful record of the run.
func TestJSONLReplayReproducesMetrics(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	cfg := observedRun(t, 5, w)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if _, ok := events[0].(obs.RunStart); !ok {
		t.Errorf("stream starts with %T, want RunStart", events[0])
	}
	if _, ok := events[len(events)-1].(obs.RunEnd); !ok {
		t.Errorf("stream ends with %T, want RunEnd", events[len(events)-1])
	}
	replay := obs.NewMetricsSink(cfg.Stack.Config.Workspace)
	for _, e := range events {
		replay.OnEvent(e)
	}
	if got := replay.Metrics(); !reflect.DeepEqual(got, res.Metrics) {
		t.Errorf("replayed metrics diverge from the run's:\n%+v\nvs\n%+v", got, res.Metrics)
	}
}

// TestEventStreamDeterministic: the same (scenario, seed) produces the
// byte-identical event sequence on repeated runs.
func TestEventStreamDeterministic(t *testing.T) {
	trace := func() []byte {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		if _, err := Run(observedRun(t, 23, w)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := trace(), trace()
	if !bytes.Equal(a, b) {
		t.Fatalf("event streams diverge between identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestCancellationMidRun: cancelling the context mid-run returns the
// context's error together with a consistent partial Result — every module's
// mode accounting closes exactly at the reported duration, and the partial
// stream still ends with RunEnd.
func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sliceCount := 0
	// Cancel from inside the stream after a fixed number of time-progress
	// events, so the test does not depend on wall-clock timing.
	tripwire := obs.ObserverFunc(func(e obs.Event) {
		if _, ok := e.(obs.TimeProgress); ok {
			if sliceCount++; sliceCount == 40 {
				cancel()
			}
		}
	})
	rec := obs.NewRecorder(0)
	cfg := observedRun(t, 3, tripwire, rec)
	cfg.Context = ctx
	res, err := Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	m := res.Metrics
	if m.Duration <= 0 || m.Duration >= cfg.Duration {
		t.Fatalf("partial duration %v outside (0, %v)", m.Duration, cfg.Duration)
	}
	if len(m.Modules) == 0 {
		t.Fatal("partial metrics lost the module accounting")
	}
	for name, s := range m.Modules {
		if got := s.ACTime + s.SCTime; got != m.Duration {
			t.Errorf("module %q accounts %v of mode time, want the partial duration %v", name, got, m.Duration)
		}
	}
	events := rec.Events()
	last, ok := events[len(events)-1].(obs.RunEnd)
	if !ok {
		t.Fatalf("partial stream ends with %T, want RunEnd", events[len(events)-1])
	}
	if last.T != m.Duration || last.Err == "" {
		t.Errorf("RunEnd = %+v, want T=%v and a recorded error", last, m.Duration)
	}
}

// TestLegacyMetricsShape pins the rewired pipeline to the legacy runner's
// semantics on a fixed scenario+seed: the jitter model must surface dropped
// firings, the mission must make progress, and the per-module accounting
// must cover the whole run — the invariants the byte-identical golden
// comparison against the pre-rewire runner was built on.
func TestLegacyMetricsShape(t *testing.T) {
	res, err := Run(observedRun(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Duration != 8*time.Second {
		t.Errorf("duration = %v", m.Duration)
	}
	if m.DistanceFlown <= 0 || m.BatteryAtEnd <= 0 || m.BatteryAtEnd >= 1 {
		t.Errorf("implausible run: distance=%v battery=%v", m.DistanceFlown, m.BatteryAtEnd)
	}
	if m.DroppedFirings == 0 {
		t.Error("jitter produced no dropped firings")
	}
	if m.MinClearance <= 0 {
		t.Error("no clearance tracking")
	}
	for name, s := range m.Modules {
		if s.ACTime+s.SCTime != m.Duration {
			t.Errorf("module %q mode time %v != duration %v", name, s.ACTime+s.SCTime, m.Duration)
		}
	}
}
