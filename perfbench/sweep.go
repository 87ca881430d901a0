package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// digestBatches is how many leading batches the verdict digest covers. Every
// run completes at least these, so the digest of a seed is fixed.
const digestBatches = 2

// sweep is a fleet workload: batches of missions over a fixed set of cells
// (scenario variants), each batch at fresh seeds derived from the workload
// seed, run through fleet.Run at workers = nproc.
type sweep struct {
	name         string
	cells        []scenario.Spec
	seedsPerCell int
	tailQ        float64
	seed         int64
	workers      int

	artifactsCold time.Duration
}

// missionSpec is one generated mission: the program under test receives only
// the spec and the seed.
type missionSpec struct {
	spec scenario.Spec
	seed int64
}

func (m missionSpec) name() string { return fmt.Sprintf("%s/seed-%d", m.spec.Name, m.seed) }

// batch returns batch b's missions, cell-major.
func (s *sweep) batch(b int) []missionSpec {
	out := make([]missionSpec, 0, len(s.cells)*s.seedsPerCell)
	for ci, spec := range s.cells {
		for k := range s.seedsPerCell {
			out = append(out, missionSpec{spec: spec, seed: deriveSeed(s.seed, int64(b), int64(ci), int64(k))})
		}
	}
	return out
}

// setup warms the process-wide mission artifact pool (workspace indexes,
// analyzers, the A* grid) with one build per cell, then flies one warm-up
// mission per cell so that the timed batches start from a grown heap. The
// warm-up seeds are the same for every workload seed, so set-up does the
// same work on every run.
func (s *sweep) setup() error {
	start := time.Now()
	warmup := make([]missionSpec, len(s.cells))
	for i, spec := range s.cells {
		warmup[i] = missionSpec{spec: spec, seed: deriveSeed(0, -1, int64(i))}
		if _, err := spec.Build(warmup[i].seed); err != nil {
			return err
		}
	}
	s.artifactsCold = time.Since(start)
	if err := s.runBatch(warmup, s.workers, time.Time{}, 0, false).rep.FirstErr(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (s *sweep) close() {}

func (s *sweep) params() map[string]any {
	cells := make([]string, len(s.cells))
	for i, c := range s.cells {
		cells[i] = fmt.Sprintf("%s (%v)", c.Name, c.Duration)
	}
	return map[string]any{
		"cells": cells, "seeds_per_cell": s.seedsPerCell, "workers": s.workers,
		"tail_quantile": s.tailQ, "digest_batches": digestBatches,
	}
}

// missionTimes are the wall stamps of one mission, taken from the benchmark's
// own Build closure and fleet's OnResult hook.
type missionTimes struct {
	start, built, end time.Time
	tr                *tracer
}

// batchRun is one fleet.Run with its stamps.
type batchRun struct {
	rep   *fleet.Report
	times []missionTimes
}

// runBatch runs one batch. With base non-zero every mission carries a tracer
// whose stamps are relative to base; with keepFirst the first mission's
// tracer also keeps its spans.
func (s *sweep) runBatch(ms []missionSpec, workers int, base time.Time, firstID int, keepFirst bool) batchRun {
	times := make([]missionTimes, len(ms))
	missions := make([]fleet.Mission, len(ms))
	for i, m := range ms {
		missions[i] = fleet.Mission{
			Name: m.name(),
			Seed: m.seed,
			Build: func() (sim.RunConfig, error) {
				times[i].start = time.Now()
				cfg, err := m.spec.Build(m.seed)
				times[i].built = time.Now()
				if err != nil || base.IsZero() {
					return cfg, err
				}
				tr, err := newTracer(cfg.Stack, base, firstID+i, keepFirst && i == 0)
				if err != nil {
					return cfg, err
				}
				times[i].tr = tr
				cfg.Observers = append(cfg.Observers, tr)
				return cfg, nil
			},
		}
	}
	rep := fleet.Run(context.Background(), missions, fleet.Options{
		Workers:  workers,
		OnResult: func(i int, _ fleet.Mission, _ fleet.MissionResult) { times[i].end = time.Now() },
	})
	return batchRun{rep: rep, times: times}
}

// verdict is the deterministic outcome of one mission, as digested.
func verdict(r fleet.MissionResult) string {
	if r.Err != nil {
		return fmt.Sprintf("%s seed=%d err=%v\n", r.Name, r.Seed, r.Err)
	}
	m := r.Metrics
	var dis, re, clamped int
	for _, st := range m.Modules {
		dis += st.Disengagements
		re += st.Reengagements
		clamped += st.Clamped
	}
	return fmt.Sprintf("%s seed=%d crashed=%t landed=%t dis=%d re=%d clamped=%d visited=%d dist=%s\n",
		r.Name, r.Seed, m.Crashed, m.Landed, dis, re, clamped, m.TargetsVisited,
		strconv.FormatFloat(m.DistanceFlown, 'g', -1, 64))
}

func verdicts(rep *fleet.Report) []string {
	out := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		out[i] = verdict(r)
	}
	return out
}

// digest hashes the verdicts of the leading digestBatches batches.
func digest(batches [][]string) string {
	h := sha256.New()
	for _, vs := range batches[:min(digestBatches, len(batches))] {
		for _, v := range vs {
			_, _ = io.WriteString(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mismatches counts the verdicts of got that differ from want, batch by
// batch over the batches both hold.
func mismatches(want, got [][]string) int {
	n := 0
	for b := range min(len(want), len(got)) {
		for i := range want[b] {
			if i >= len(got[b]) || got[b][i] != want[b][i] {
				n++
			}
		}
	}
	return n
}

// phase is what one timed pass over the batches measured.
type phase struct {
	wall          time.Duration
	missions      int
	failed        int
	missionMS     []float64
	buildUS       []float64
	simRunMS      []float64
	simRunSum     time.Duration
	busy, offered time.Duration
	tailIdle      []float64
	cellMS        map[string]float64 // summed mission wall per cell
	verdicts      [][]string
	layers        layerTotals
	spans         []span
	goBefore      goStats
	goAfter       goStats
}

// measure runs batches until the duration has passed and at least
// digestBatches ran, or exactly n batches when n > 0, tracing every mission
// when traced is set. The calibration kernel runs between batches in every
// phase, so traced and untraced runs fly the same schedule; the phase's wall
// counts the batches alone.
func (s *sweep) measure(dur time.Duration, n int, traced bool, cal *calibrator) *phase {
	p := &phase{cellMS: map[string]float64{}}
	var base time.Time
	if traced {
		base = time.Now()
	}
	p.goBefore = readGoStats()
	id := 0
	for b := 0; ; b++ {
		if n > 0 && b == n {
			break
		}
		if n <= 0 && b >= digestBatches && p.wall >= dur {
			break
		}
		ms := s.batch(b)
		start := time.Now()
		br := s.runBatch(ms, s.workers, base, id, len(p.spans) < spanLimit)
		p.wall += time.Since(start)
		id += len(ms)
		p.add(br, s.workers)
		cal.maybe()
	}
	p.goAfter = readGoStats()
	return p
}

func (p *phase) add(br batchRun, workers int) {
	rep := br.rep
	p.verdicts = append(p.verdicts, verdicts(rep))
	p.missions += rep.Missions
	p.failed += rep.Failed
	var ends []time.Time
	var last time.Time
	for i, t := range br.times {
		if rep.Results[i].Err != nil {
			continue
		}
		wall := t.end.Sub(t.start)
		p.missionMS = append(p.missionMS, ms(wall))
		p.buildUS = append(p.buildUS, float64(t.built.Sub(t.start))/float64(time.Microsecond))
		run := t.end.Sub(t.built)
		p.simRunMS = append(p.simRunMS, ms(run))
		p.simRunSum += run
		p.busy += wall
		p.cellMS[strings.TrimSuffix(rep.Results[i].Name, fmt.Sprintf("/seed-%d", rep.Results[i].Seed))] += ms(wall)
		ends = append(ends, t.end)
		if t.end.After(last) {
			last = t.end
		}
		if t.tr != nil && t.tr.ended {
			p.layers.add(t.tr)
			t.tr.recordMission(t.start, t.end)
			p.spans = append(p.spans, t.tr.spans...)
		}
	}
	p.offered += rep.Wall * time.Duration(workers)
	// With an unbuffered feed the last `workers` missions to finish ran on
	// distinct workers; each worker idles from its last mission's end to the
	// batch's.
	slices.SortFunc(ends, func(a, b time.Time) int { return b.Compare(a) })
	idle := time.Duration(0)
	for _, e := range ends[:min(workers, len(ends))] {
		idle += last.Sub(e)
	}
	p.tailIdle = append(p.tailIdle, ms(idle))
}

func (p *phase) throughput() float64 {
	return ratio(float64(p.missions-p.failed), p.wall.Seconds())
}

// deriveSeed mixes the workload seed with a position into a mission seed
// (splitmix64), so every batch, cell and slot gets its own stream.
func deriveSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x>>33) + 1
}

func (s *sweep) run(dur time.Duration, traced bool) (*outcome, error) {
	o := newOutcome()
	cal := newCalibrator(s.workers)
	if !traced {
		p := s.measure(dur, 0, false, cal)
		o.attempted = p.missions
		o.fail(p.failed, fmt.Sprintf("%d missions failed", p.failed))
		o.scaled(cal, p.throughput(), quantile(p.missionMS, 0.5), quantile(p.missionMS, s.tailQ))
		s.noteSamples(o, p)
		s.check(o, p)
		return o, nil
	}
	u := s.measure(dur/2, 0, false, cal)
	t := s.measure(0, len(u.verdicts), true, cal)
	o.attempted = u.missions + t.missions
	o.fail(u.failed+t.failed, fmt.Sprintf("%d missions failed", u.failed+t.failed))
	o.fail(mismatches(u.verdicts, t.verdicts), "traced verdicts differ from untraced ones")
	s.noteSamples(o, u)
	s.checkDigest(o, digest(u.verdicts))
	o.notes["layer_shares"] = t.layers.shares()
	o.spans = t.spans

	m := o.metrics
	m["missions_per_s"] = u.throughput()
	m["mission_p50_ms"] = quantile(u.missionMS, 0.5)
	m["mission_tail_ms"] = quantile(u.missionMS, s.tailQ)
	m["failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
	m["fleet.busy_frac"] = ratio(float64(u.busy), float64(u.offered))
	m["fleet.tail_idle_ms"] = quantile(u.tailIdle, 0.5)
	m["scenario.build_us"] = quantile(u.buildUS, 0.5)
	m["mission.artifacts_cold_ms"] = ms(s.artifactsCold)
	m["sim.run_ms"] = quantile(u.simRunMS, 0.5)
	t.layers.metrics(m)
	goMetrics(m, u.goBefore, u.goAfter, u.missions)
	m["trace.coverage"] = ratio(float64(t.layers.covered), float64(t.simRunSum))
	m["trace.overhead"] = ratio(t.throughput(), u.throughput())
	zeroFamily(m, "jobs_per_s", "warm_job_", "fresh_job_", "service.", "store.")
	return o, nil
}

func (s *sweep) noteSamples(o *outcome, p *phase) {
	o.notes["missions"] = p.missions
	o.notes["batches"] = len(p.verdicts)
	o.notes["tail_quantile"] = s.tailQ
	o.notes["tail_samples_beyond"] = beyond(len(p.missionMS), s.tailQ)
	o.notes["op_quantiles_ms"] = quantiles(p.missionMS)
	busy := ms(p.busy)
	shares := map[string]float64{}
	for cell, t := range p.cellMS {
		shares[cell] = ratio(t, busy)
	}
	o.notes["cell_wall_shares"] = shares
}

// check holds an untraced run to its verdicts: the leading batch re-run on
// one worker must reproduce them, and the digest must match any recorded for
// the seed.
func (s *sweep) check(o *outcome, p *phase) {
	again := verdicts(s.runBatch(s.batch(0), 1, time.Time{}, 0, false).rep)
	o.fail(mismatches(p.verdicts[:1], [][]string{again}), "batch 0 re-run on one worker gave other verdicts")
	s.checkDigest(o, digest(p.verdicts))
}

func (s *sweep) checkDigest(o *outcome, d string) {
	o.notes["digest"] = d
	if want, ok := expectedDigest(s.name, s.seed); ok && want != d {
		o.fail(1, fmt.Sprintf("digest %s, expected %s", d, want))
	}
}
