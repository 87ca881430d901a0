package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// serveMix drives two soter-serve servers in this process over loopback
// HTTP: A with memory and disk tiers, B memory-only with A as its peer. Two
// closed-loop clients submit jobs, wait for each job's event stream to close
// and fetch its report. One job in five is fresh (seeds never requested
// before); the rest are warm, their cells drawn with a Zipf distribution
// from a universe prefilled into A during setup.
type serveMix struct {
	seed          int64
	groups        []serveGroup
	universeSeeds int
	jobCells      int
	cellDuration  time.Duration
	cacheEntries  int

	dir    string
	a, b   *server
	client *http.Client
	// ref is the verdict of every universe cell, recorded while prefilling.
	ref map[cellKey]string
	// gens are the clients' job generators; they run on across phases, so
	// fresh seeds are never repeated.
	gens []*jobGen
}

// serveGroup is one job shape: a registry scenario and a switching policy.
type serveGroup struct{ scenario, policy string }

type cellKey struct {
	group int
	seed  int64
}

// serveClients is the number of closed-loop clients (nproc on the reference
// machine; fixed so that the job sequence depends on the seed alone).
const serveClients = 2

// The traffic's values. The job shape is the one the repository's only
// soter-serve client, the CI end-to-end step, submits: one seed at a 2 s
// duration, resubmitted unchanged to be served from the store. No measured
// request log exists for the rest, so README.md gives each as an assumption
// with its reason:
//   - jobCells = 1 and cellDuration = 2 s: the CI job.
//   - universeSeeds = 16 per group (256 cells over the 16 groups): eight
//     times the memory tier's 32 entries, so warm reads miss memory and reach
//     disk and the peer, and small enough to prefill in well under a second.
//   - zipfS = 1.1: math/rand's Zipf needs s > 1; this is the flattest skew
//     it offers, so the traffic assumes as little locality as it can.
//   - freshEvery = 5: the share the workload's definition fixes.
const (
	jobCells      = 1
	cellDuration  = 2 * time.Second
	universeSeeds = 16
	zipfS         = 1.1
	freshEvery    = 5
	serveTailQ    = 0.90
)

func newServeMix(seed int64, smoke bool) *serveMix {
	m := &serveMix{seed: seed, universeSeeds: universeSeeds, jobCells: jobCells, cellDuration: cellDuration}
	if smoke {
		m.universeSeeds = 2
	}
	for _, spec := range motionSpecs() {
		for _, pol := range motionPolicies {
			m.groups = append(m.groups, serveGroup{spec.Name, pol})
		}
	}
	// Several times smaller than the universe, so warm reads reach every tier.
	m.cacheEntries = max(len(m.groups)*m.universeSeeds/8, 1)
	for c := range serveClients {
		m.gens = append(m.gens, m.generator(c))
	}
	return m
}

func (m *serveMix) params() map[string]any {
	return map[string]any{
		"groups": len(m.groups), "universe_cells": len(m.groups) * m.universeSeeds,
		"cells_per_job": m.jobCells, "cell_duration": m.cellDuration.String(),
		"cache_entries": m.cacheEntries, "clients": serveClients, "fresh_every": freshEvery,
		"zipf_s": zipfS, "server_workers": 1, "tail_quantile": serveTailQ,
	}
}

// registerOnce adds the planner-off motion specs to the scenario registry so
// that jobs can name them.
var registerOnce = sync.OnceValue(func() error {
	for _, spec := range motionSpecs() {
		if _, ok := scenario.Get(spec.Name); ok {
			continue
		}
		if err := scenario.Register(spec); err != nil {
			return err
		}
	}
	return nil
})

// universeSeed is the seed of the universe's i-th cell in every group. The
// universe is the same for every workload seed, so set-up does the same work
// on every run; the workload seed picks the popularity ranks, the servers and
// the fresh seeds.
func (m *serveMix) universeSeed(i int) int64 { return deriveSeed(0, -7) + int64(i) }

// jobReq is one generated job.
type jobReq struct {
	server int // 0 = A, 1 = B
	group  int
	seeds  []int64
	fresh  bool
}

// jobGen is one client's deterministic job sequence.
type jobGen struct {
	m         *serveMix
	client    int
	rng       *rand.Rand
	zGroup    *rand.Zipf
	zSeed     *rand.Zipf
	groupRank []int
	seedRank  [][]int
	n         int
	nextFresh int64
}

func (m *serveMix) generator(client int) *jobGen {
	rng := rand.New(rand.NewSource(deriveSeed(m.seed, -11, int64(client))))
	// Popularity ranks are shared by the clients, so they warm the same
	// cells.
	perm := rand.New(rand.NewSource(deriveSeed(m.seed, -13)))
	g := &jobGen{
		m: m, client: client, rng: rng,
		zGroup:    rand.NewZipf(rng, zipfS, 1, uint64(len(m.groups)-1)),
		zSeed:     rand.NewZipf(rng, zipfS, 1, uint64(m.universeSeeds-1)),
		groupRank: perm.Perm(len(m.groups)),
		// Above every universe seed (< 2^32), and apart per client.
		nextFresh: int64(client+1)<<40 + deriveSeed(m.seed, -19),
	}
	for range m.groups {
		g.seedRank = append(g.seedRank, perm.Perm(m.universeSeeds))
	}
	return g
}

func (g *jobGen) next() jobReq {
	m := g.m
	r := jobReq{server: g.rng.Intn(2), fresh: (g.n+2*g.client)%freshEvery == freshEvery-1}
	g.n++
	if r.fresh {
		r.group = g.rng.Intn(len(m.groups))
		for range m.jobCells {
			r.seeds = append(r.seeds, g.nextFresh)
			g.nextFresh++
		}
		return r
	}
	r.group = g.groupRank[g.zGroup.Uint64()]
	k := min(m.jobCells, m.universeSeeds)
	seen := map[int]bool{}
	for len(r.seeds) < k {
		i := g.seedRank[r.group][g.zSeed.Uint64()]
		if !seen[i] {
			seen[i] = true
			r.seeds = append(r.seeds, m.universeSeed(i))
		}
	}
	return r
}

// server is one soter-serve instance on a loopback listener.
type server struct {
	svc  *service.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg service.Config) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	if s == nil {
		return
	}
	_ = s.http.Close()
	<-s.done
	s.svc.Close()
}

func (m *serveMix) serverConfig() service.Config {
	return service.Config{
		Workers:      1,
		CacheEntries: m.cacheEntries,
		// Small replay rings and retention keep the servers' own memory
		// proportional to the jobs in flight.
		EventRing: 256,
		MaxJobs:   256,
	}
}

func (m *serveMix) setup() error {
	if err := registerOnce(); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir(), "serve-")
	if err != nil {
		return err
	}
	m.dir = dir
	m.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}

	cfgA := m.serverConfig()
	cfgA.StoreDir = filepath.Join(dir, "a")
	if m.a, err = startServer(cfgA); err != nil {
		return err
	}
	cfgB := m.serverConfig()
	cfgB.Peers = []string{m.a.url}
	if m.b, err = startServer(cfgB); err != nil {
		return err
	}

	// Prefill A (memory and disk) with the whole universe, one job per group.
	m.ref = make(map[cellKey]string)
	seeds := make([]int64, m.universeSeeds)
	for i := range seeds {
		seeds[i] = m.universeSeed(i)
	}
	for g := range m.groups {
		s := m.doJob(jobReq{server: 0, group: g, seeds: seeds, fresh: true}, false)
		if s.err != nil {
			return fmt.Errorf("prefill %v: %w", m.groups[g], s.err)
		}
		for _, c := range s.cells {
			m.ref[cellKey{g, c.seed}] = c.verdict
		}
	}
	return nil
}

func (m *serveMix) close() {
	m.b.close()
	m.a.close()
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
	if m.dir != "" {
		_ = os.RemoveAll(m.dir)
	}
}

// cellResult is one cell of a returned report.
type cellResult struct {
	seed    int64
	verdict string
	cached  bool
	wallMS  float64
}

// jobSample is one job as the client saw it.
type jobSample struct {
	req     jobReq
	refused bool
	err     error
	// latency is POST sent → report body received.
	latency time.Duration
	// Traced jobs only: the boundaries of the job's life.
	submit, queueWait, runTime, closeLag, report time.Duration
	reportBytes                                  int
	cells                                        []cellResult
	start, end                                   time.Time
}

func (m *serveMix) url(server int) string {
	if server == 0 {
		return m.a.url
	}
	return m.b.url
}

// doJob submits one job, waits until its event stream closes and fetches
// its report; traced jobs also read the job's timestamps.
func (m *serveMix) doJob(r jobReq, traced bool) jobSample {
	g := m.groups[r.group]
	s := jobSample{req: r}
	body, err := json.Marshal(service.JobSpec{
		Scenario:  g.scenario,
		Overrides: service.Overrides{Duration: service.Duration(m.cellDuration), Policy: g.policy},
		Seeds:     r.seeds,
	})
	if err != nil {
		s.err = err
		return s
	}
	base := m.url(r.server)
	s.start = time.Now()
	resp, err := m.client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var view service.JobView
	err = decodeBody(resp, http.StatusAccepted, &view)
	t1 := time.Now()
	if resp.StatusCode == http.StatusServiceUnavailable {
		s.refused = true
	}
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	resp, err = m.client.Get(base + "/jobs/" + view.ID + "/events")
	if err != nil {
		s.err = err
		return s
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("events: status %d: %v", resp.StatusCode, err)
		return s
	}
	resp, err = m.client.Get(base + "/jobs/" + view.ID + "/report")
	if err != nil {
		s.err = err
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.latency = s.end.Sub(s.start)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("report: status %d: %v", resp.StatusCode, err)
		return s
	}
	var rep service.ReportView
	if err := json.Unmarshal(raw, &rep); err != nil {
		s.err = fmt.Errorf("report: %w", err)
		return s
	}
	s.reportBytes = len(raw)
	if rep.Failed != 0 || len(rep.Results) != len(r.seeds) {
		s.err = fmt.Errorf("report: %d failed, %d of %d cells", rep.Failed, len(rep.Results), len(r.seeds))
		return s
	}
	for i, c := range rep.Results {
		res := fleet.MissionResult{Name: c.Name, Seed: c.Seed, Metrics: c.Metrics}
		if c.Error != "" {
			res.Err = errors.New(c.Error)
		}
		if c.Seed != r.seeds[i] {
			s.err = fmt.Errorf("report cell %d has seed %d, want %d", i, c.Seed, r.seeds[i])
			return s
		}
		s.cells = append(s.cells, cellResult{seed: c.Seed, verdict: verdict(res), cached: c.Cached, wallMS: c.WallMS})
	}
	if !traced {
		return s
	}
	s.submit, s.report = t1.Sub(s.start), s.end.Sub(t2)
	resp, err = m.client.Get(base + "/jobs/" + view.ID)
	if err != nil {
		s.err = err
		return s
	}
	if err := decodeBody(resp, http.StatusOK, &view); err != nil {
		s.err = fmt.Errorf("job view: %w", err)
		return s
	}
	s.queueWait = view.Started.Sub(view.Created)
	s.runTime = view.Finished.Sub(view.Started)
	s.closeLag = t2.Round(0).Sub(view.Finished)
	return s
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// servePhase is one timed pass of the two clients.
type servePhase struct {
	jobs     []jobSample
	wall     time.Duration
	goBefore goStats
	goAfter  goStats
}

// drive runs the clients in slices of calibEvery until dur has passed. At
// the end of a slice each client finishes its job in flight, then the
// calibration kernel runs; this happens in every phase, so traced and
// untraced runs send the same traffic. The phase's wall counts the client
// slices alone.
func (m *serveMix) drive(dur time.Duration, traced bool, cal *calibrator) *servePhase {
	p := &servePhase{goBefore: readGoStats()}
	for p.wall < dur {
		p.wall += m.slice(p, min(calibEvery, dur-p.wall), traced)
		cal.run()
	}
	p.goAfter = readGoStats()
	return p
}

// slice runs the clients for d and returns how long they took to finish.
func (m *serveMix) slice(p *servePhase, d time.Duration, traced bool) time.Duration {
	start := time.Now()
	until := start.Add(d)
	per := make([][]jobSample, serveClients)
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				per[c] = append(per[c], m.doJob(m.gens[c].next(), traced))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, js := range per {
		p.jobs = append(p.jobs, js...)
	}
	return wall
}

// check counts a phase's failed jobs and holds its warm cells to the
// reference verdicts; it returns the fresh cells the phase served.
func (m *serveMix) check(o *outcome, p *servePhase) map[cellKey]string {
	fresh := map[cellKey]string{}
	failed, wrong := 0, 0
	for _, j := range p.jobs {
		if j.err != nil {
			failed++
			o.notes["last_job_error"] = j.err.Error()
			continue
		}
		bad := false
		for _, c := range j.cells {
			k := cellKey{j.req.group, c.seed}
			if j.req.fresh {
				fresh[k] = c.verdict
			} else if m.ref[k] != c.verdict {
				bad = true
			}
		}
		if bad {
			wrong++
		}
	}
	o.attempted += len(p.jobs)
	o.fail(failed, fmt.Sprintf("%d jobs failed or were refused", failed))
	o.fail(wrong, fmt.Sprintf("%d jobs returned a universe cell that differs from its prefill verdict", wrong))
	return fresh
}

// resimulate re-runs a deterministic sample of the fresh cells outside the
// service, after the timed phases; a served verdict that differs is a wrong
// output.
func (m *serveMix) resimulate(o *outcome, fresh map[cellKey]string) {
	var keys []cellKey
	for k := range fresh {
		if deriveSeed(m.seed, -17, k.seed)%32 == 0 {
			keys = append(keys, k)
		}
	}
	missions := make([]fleet.Mission, len(keys))
	for i, k := range keys {
		g := m.groups[k.group]
		spec := scenario.MustGet(g.scenario)
		spec.Duration, spec.SwitchPolicy = m.cellDuration, g.policy
		missions[i] = fleet.Mission{
			Name:  fmt.Sprintf("%s/seed-%d", spec.Name, k.seed),
			Seed:  k.seed,
			Build: func() (sim.RunConfig, error) { return spec.Build(k.seed) },
		}
	}
	rep := fleet.Run(context.Background(), missions, fleet.Options{Workers: 1})
	wrong := 0
	for i, r := range rep.Results {
		if verdict(r) != fresh[keys[i]] {
			wrong++
		}
	}
	o.notes["fresh_cells_resimulated"] = len(keys)
	o.fail(wrong, fmt.Sprintf("%d re-simulated fresh cells differ from the served verdict", wrong))
}

// latencies splits a phase's completed jobs into all, warm and fresh
// latencies (ms).
func latencies(jobs []jobSample) (all, warm, fresh []float64) {
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		l := ms(j.latency)
		all = append(all, l)
		if j.req.fresh {
			fresh = append(fresh, l)
		} else {
			warm = append(warm, l)
		}
	}
	return all, warm, fresh
}

func (p *servePhase) throughput() float64 {
	n := 0
	for _, j := range p.jobs {
		if j.err == nil {
			n++
		}
	}
	return ratio(float64(n), p.wall.Seconds())
}

func (p *servePhase) cells() int {
	n := 0
	for _, j := range p.jobs {
		n += len(j.cells)
	}
	return n
}

func (m *serveMix) run(dur time.Duration, traced bool) (*outcome, error) {
	o := newOutcome()
	o.storeDir = m.dir
	cal := newCalibrator(serveClients)
	if !traced {
		p := m.drive(dur, false, cal)
		fresh := m.check(o, p)
		m.resimulate(o, fresh)
		all, _, _ := latencies(p.jobs)
		o.scaled(cal, p.throughput(), quantile(all, 0.5), quantile(all, serveTailQ))
		o.notes["jobs"] = len(p.jobs)
		o.notes["tail_quantile"] = serveTailQ
		o.notes["tail_samples_beyond"] = beyond(len(all), serveTailQ)
		o.notes["op_quantiles_ms"] = quantiles(all)
		return o, nil
	}
	u := m.drive(dur/2, false, cal)
	before, err := m.stats()
	if err != nil {
		return nil, err
	}
	t := m.drive(dur/2, true, cal)
	after, err := m.stats()
	if err != nil {
		return nil, err
	}
	fresh := m.check(o, u)
	for k, v := range m.check(o, t) {
		fresh[k] = v
	}
	m.resimulate(o, fresh)

	mt := o.metrics
	all, warm, freshLat := latencies(u.jobs)
	mt["jobs_per_s"] = u.throughput()
	mt["warm_job_p50_ms"] = quantile(warm, 0.5)
	mt["warm_job_tail_ms"] = quantile(warm, serveTailQ)
	mt["fresh_job_p50_ms"] = quantile(freshLat, 0.5)
	mt["fresh_job_tail_ms"] = quantile(freshLat, serveTailQ)
	mt["failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
	o.notes["untraced_jobs"] = len(all)
	o.notes["warm_tail_samples_beyond"] = beyond(len(warm), serveTailQ)
	o.notes["fresh_tail_samples_beyond"] = beyond(len(freshLat), serveTailQ)
	goMetrics(mt, u.goBefore, u.goAfter, u.cells())
	serviceMetrics(o, t)
	storeMetrics(mt, before, after, t)
	mt["trace.overhead"] = ratio(t.throughput(), u.throughput())
	zeroFamily(mt, "mission", "fleet.", "scenario.", "sim.", "runtime.", "rta.", "controller.", "plan.", "plant.")
	return o, nil
}

// serviceMetrics renders the traced jobs' service boundaries and their spans.
func serviceMetrics(o *outcome, t *servePhase) {
	var submit, queue, runT, lag, report, bytes []float64
	var parts, total time.Duration
	refused := 0
	for i, j := range t.jobs {
		if j.refused {
			refused++
		}
		if j.err != nil {
			continue
		}
		submit = append(submit, ms(j.submit))
		queue = append(queue, ms(j.queueWait))
		runT = append(runT, ms(j.runTime))
		lag = append(lag, ms(j.closeLag))
		report = append(report, ms(j.report))
		bytes = append(bytes, float64(j.reportBytes))
		parts += j.submit + j.queueWait + j.runTime + j.closeLag + j.report
		total += j.latency
		o.spans = append(o.spans, jobSpans(i, j)...)
	}
	mt := o.metrics
	mt["service.submit_ms"] = quantile(submit, 0.5)
	mt["service.queue_wait_ms"] = quantile(queue, 0.5)
	mt["service.run_ms"] = quantile(runT, 0.5)
	mt["service.close_lag_ms"] = quantile(lag, 0.5)
	mt["service.report_ms"] = quantile(report, 0.5)
	mt["service.report_bytes"] = quantile(bytes, 0.5)
	mt["service.refused"] = float64(refused)
	// The five service spans tile a job's latency, except that the submit
	// round trip overlaps the start of the queue wait; a value far from 1
	// means the boundaries are out of order.
	mt["trace.coverage"] = ratio(float64(parts), float64(total))
}

// jobSpans lays a traced job's boundaries out as spans under the job span.
func jobSpans(id int, j jobSample) []span {
	at := func(d time.Duration) int64 { return j.start.UnixNano() + int64(d) }
	sp := func(name string, from, to time.Duration) span {
		return span{Root: id, Name: name, Layer: "service", Start: at(from), End: at(to)}
	}
	created := j.latency - j.report - j.closeLag - j.runTime - j.queueWait
	started := created + j.queueWait
	finished := started + j.runTime
	return []span{
		sp("job", 0, j.latency),
		sp("submit", 0, j.submit),
		sp("queue_wait", created, started),
		sp("run", started, finished),
		sp("close_lag", finished, finished+j.closeLag),
		sp("report", j.latency-j.report, j.latency),
	}
}

// stats reads /stats from both servers.
func (m *serveMix) stats() ([2]service.Stats, error) {
	var out [2]service.Stats
	for i, u := range []string{m.a.url, m.b.url} {
		resp, err := m.client.Get(u + "/stats")
		if err != nil {
			return out, err
		}
		if err := decodeBody(resp, http.StatusOK, &out[i]); err != nil {
			return out, fmt.Errorf("stats: %w", err)
		}
	}
	return out, nil
}

// storeMetrics renders the store tiers' counter deltas over the traced
// phase, and the served cells' latencies by origin.
func storeMetrics(mt map[string]float64, before, after [2]service.Stats, t *servePhase) {
	a0, a1, b0, b1 := before[0].Store, after[0].Store, before[1].Store, after[1].Store
	d := func(x, y int64) float64 { return float64(y - x) }
	hitRatio := func(h, mi float64) float64 { return ratio(h, h+mi) }
	memHits := d(a0.Memory.Hits, a1.Memory.Hits) + d(b0.Memory.Hits, b1.Memory.Hits)
	memMiss := d(a0.Memory.Misses, a1.Memory.Misses) + d(b0.Memory.Misses, b1.Memory.Misses)
	mt["store.memory.hit_ratio"] = hitRatio(memHits, memMiss)
	var diskHits, diskMiss, peerHits, peerMiss, errs, quarantined, diskEvict float64
	if a0.Disk != nil && a1.Disk != nil {
		diskHits, diskMiss = d(a0.Disk.Hits, a1.Disk.Hits), d(a0.Disk.Misses, a1.Disk.Misses)
		errs += d(a0.Disk.Errors, a1.Disk.Errors)
		quarantined = d(a0.Disk.Quarantined, a1.Disk.Quarantined)
		diskEvict = d(a0.Disk.Evictions, a1.Disk.Evictions)
	}
	if b0.Peers != nil && b1.Peers != nil {
		peerHits, peerMiss = d(b0.Peers.Hits, b1.Peers.Hits), d(b0.Peers.Misses, b1.Peers.Misses)
		errs += d(b0.Peers.Errors, b1.Peers.Errors)
	}
	errs += d(a0.Memory.Errors, a1.Memory.Errors) + d(b0.Memory.Errors, b1.Memory.Errors)
	mt["store.disk.hit_ratio"] = hitRatio(diskHits, diskMiss)
	mt["store.peers.hit_ratio"] = hitRatio(peerHits, peerMiss)
	mt["store.errors"] = errs
	mt["store.quarantined"] = quarantined
	mt["store.disk.evictions"] = diskEvict
	mt["store.memory.evictions"] = d(a0.Memory.Evictions, a1.Memory.Evictions) + d(b0.Memory.Evictions, b1.Memory.Evictions)
	fills := d(a0.Fills, a1.Fills) + d(b0.Fills, b1.Fills)
	mt["store.fills"] = fills
	mt["store.collapsed"] = d(a0.Collapsed, a1.Collapsed) + d(b0.Collapsed, b1.Collapsed)
	mt["store.aborts"] = d(a0.Aborts, a1.Aborts) + d(b0.Aborts, b1.Aborts)

	var cached, fresh []float64
	for _, j := range t.jobs {
		for _, c := range j.cells {
			if c.cached {
				cached = append(cached, c.wallMS)
			} else {
				fresh = append(fresh, c.wallMS)
			}
		}
	}
	mt["store.cached_cell_ms"] = quantile(cached, 0.5)
	mt["store.fresh_cell_ms"] = quantile(fresh, 0.5)
	mt["store.fill_ratio"] = ratio(fills, float64(len(fresh)))
}
