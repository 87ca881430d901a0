// Package service is the simulation-as-a-service layer: a long-running
// server that accepts batch simulation jobs over HTTP/JSON, schedules them on
// a bounded job queue over the fleet engine, streams live progress as obs
// JSONL events, and answers repeated work from a deterministic result cache.
//
// The layering below it is unchanged — a job is just a named scenario from
// the registry (internal/scenario) plus declarative overrides and a seed
// sweep, expanded into fleet missions exactly like a CLI sweep would. What
// the service adds is the two things a one-shot CLI cannot:
//
//   - Persistence of work already done. Runs are fully deterministic per
//     (spec, seed) — the property the paper's repeatable RTA experiments rely
//     on — so every grid cell's verdict is stored under a canonical
//     fingerprint of its overridden spec and seed
//     (scenario.Spec.Fingerprint) in the tiered result store
//     (internal/store): an in-memory LRU in front of an optional crash-safe
//     disk tier (Config.StoreDir — a restarted server answers yesterday's
//     sweeps without simulating) and an optional peer tier (Config.Peers —
//     N servers form one logical cache over GET /store/{key}). A repeated
//     cell is served through the fleet engine's store round-trip, byte-identical
//     to a fresh run and orders of magnitude faster, and a singleflight
//     group collapses concurrent identical fills so every fingerprint
//     simulates at most once however many jobs want it; /stats exposes the
//     per-tier hit/miss/eviction and singleflight counters.
//
//   - A live view of work in flight. Each job's missions fan their event
//     streams (run boundaries, mode switches, invariant violations, crashes,
//     landings) out to any number of HTTP subscribers as JSON Lines — the
//     same wire format as soter-sim -trace — with a bounded replay ring so
//     late subscribers still see the whole stream.
//
// Server is transport-agnostic (Submit/Job/Stats are plain methods);
// Handler adapts it to HTTP. cmd/soter-serve is the binary.
package service

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// ErrBusy marks capacity rejections (job queue full, job table full): the
// request was well-formed and may succeed later. The HTTP layer maps it to
// 503 so clients retry instead of discarding the request as malformed.
var ErrBusy = errors.New("server busy")

// ErrClosed rejects submissions to a server that is shutting down.
var ErrClosed = errors.New("server closed")

// Config sizes the server.
type Config struct {
	// Workers is the default fleet worker bound per job (0 = GOMAXPROCS);
	// a JobSpec may lower it for itself.
	Workers int
	// JobConcurrency is how many jobs run at once (default 1: jobs queue
	// behind each other, missions parallelize inside each job).
	JobConcurrency int
	// QueueDepth bounds the number of queued-but-not-started jobs (default
	// 64); submissions beyond it are rejected rather than buffered without
	// bound.
	QueueDepth int
	// CacheEntries bounds the result store's in-memory tier (default
	// store.DefaultMemoryEntries).
	CacheEntries int
	// StoreDir, when set, adds a crash-safe disk tier to the result store
	// rooted at the directory: results survive restarts, and a server
	// reopened on the same directory serves previous sweeps without
	// simulating.
	StoreDir string
	// StoreMaxBytes bounds the disk tier (default store.DefaultDiskMaxBytes);
	// least-recently-accessed entries are evicted beyond it.
	StoreMaxBytes int64
	// Peers lists sibling soter-serve base URLs ("http://host:port"). When
	// set, missing results are fetched from peers (rendezvous-hashed per
	// fingerprint) over GET /store/{key} before being simulated locally, so
	// N processes form one logical cache. A down peer degrades to local
	// compute, never an error.
	Peers []string
	// MaxJobs bounds how many jobs are retained (default 1024). When a
	// submission would exceed it, the oldest jobs in a terminal state are
	// evicted (their reports and event rings released); active jobs are
	// never evicted, and a submission that cannot fit under the bound is
	// rejected.
	MaxJobs int
	// EventRing is the per-job replay ring capacity (default 8192 events).
	EventRing int
}

func (c Config) jobConcurrency() int {
	if c.JobConcurrency > 0 {
		return c.JobConcurrency
	}
	return 1
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) maxJobs() int {
	if c.MaxJobs > 0 {
		return c.MaxJobs
	}
	return 1024
}

// Stats is the /stats payload: the result store's per-tier and singleflight
// counters plus job lifecycle counts.
type Stats struct {
	Store store.Stats `json:"store"`
	Jobs  JobCounts   `json:"jobs"`
}

// JobCounts tallies jobs by lifecycle state.
type JobCounts struct {
	Total     int `json:"total"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Server owns the job queue, the runner pool and the tiered result store.
type Server struct {
	cfg   Config
	store *store.Tiered

	ctx       context.Context
	stop      context.CancelFunc
	queue     chan *Job
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu     sync.Mutex
	closed bool // set under mu before the runners stop; gates Submit
	jobs   map[string]*Job
	order  []string // submission order, for listing
	seq    int
}

// New builds a server and starts its job runners. Close releases them. It
// errors when the configured store tiers cannot be opened (unwritable
// StoreDir, malformed peer URL) — a server that silently dropped its
// durability would serve correct results while quietly re-simulating
// everything.
func New(cfg Config) (*Server, error) {
	opts := store.Options{Memory: store.NewMemory(cfg.CacheEntries)}
	if cfg.StoreDir != "" {
		disk, err := store.NewDisk(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, err
		}
		opts.Disk = disk
	}
	if len(cfg.Peers) > 0 {
		peers, err := store.NewPeers(store.PeersConfig{Peers: cfg.Peers})
		if err != nil {
			return nil, err
		}
		opts.Peers = peers
	}
	ctx, stop := context.WithCancel(context.Background()) //soter:ctx-ok documented shim: the server owns its lifecycle root; Close cancels it
	s := &Server{
		cfg:   cfg,
		store: store.NewTiered(opts),
		ctx:   ctx,
		stop:  stop,
		queue: make(chan *Job, cfg.queueDepth()),
		jobs:  make(map[string]*Job),
	}
	for i := 0; i < cfg.jobConcurrency(); i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Close cancels every queued and running job and waits for the runners to
// drain. The server rejects submissions afterwards.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// The flag is flipped under mu before the runners stop, and Submit
		// enqueues under the same lock — so after this point no new job can
		// reach the queue, and the final drain below leaves nothing behind.
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.stop()
		s.wg.Wait()
		// Jobs that were queued when the runners exited would otherwise stay
		// StatusQueued forever (and their event streams open).
		s.drain()
		// Closed last: with the runners drained no fill can be in flight, so
		// closing the store wakes nobody mid-simulation.
		_ = s.store.Close()
	})
}

// maxCellsPerJob bounds one job's cell total (a sweep's seeds, a falsify
// budget, a certify max_seeds). Submit checks it before any per-cell work, so
// an oversized request is refused at once instead of being expanded and
// fingerprinted inside the HTTP handler.
const maxCellsPerJob = 1 << 16

// kind is one job type behind the engine: JobSpec (a fleet sweep),
// FalsifyJobSpec (a falsification campaign) or CertifyJobSpec (a
// certification campaign). Every kind shares one Submit, one runner, one
// finish and one event fan-out; a new job type is one file implementing kind.
type kind interface {
	// request reads the job's scenario, cell total and requested worker
	// bound (0 = the server's) off the request, without per-cell work.
	request() (scenario string, cells, workers int)
	// resolve validates the request and returns it ready to run, carrying
	// whatever it compiled at submit.
	resolve() (kind, error)
	// run executes the job. The result is kept whatever the error, including
	// a cancelled run's partial result.
	run(ctx context.Context, e env) (result any, err error)
	// view fills the JobView's request and result fields; result is nil
	// until the job is terminal.
	view(v *JobView, result any)
	// report is the GET /jobs/{id}/report body for the result.
	report(result any) any
}

// env is what a running kind gets from the server.
type env struct {
	store    *store.Tiered
	workers  int     // the job's clamped fleet worker bound
	fan      *fanout // the job's event stream
	progress func(done, cached int)
}

// Job is one submitted request with its live state. All mutable fields are
// guarded by mu; the event fan-out has its own synchronization.
type Job struct {
	id      string
	kind    kind // resolved at submit
	fan     *fanout
	created time.Time

	mu          sync.Mutex
	status      Status
	started     time.Time
	finished    time.Time
	cancel      func()
	result      any
	err         error
	cellsDone   int
	cellsCached int
}

// admit bounds and resolves a request: the cell total is checked before any
// per-cell work, then the kind validates itself.
func admit(k kind) (kind, error) {
	if _, cells, _ := k.request(); cells > maxCellsPerJob {
		return nil, fmt.Errorf("job of %d cells exceeds the limit of %d", cells, maxCellsPerJob)
	}
	return k.resolve()
}

// Submit validates a request (a JobSpec, FalsifyJobSpec or CertifyJobSpec)
// and enqueues it. It returns the queued job, or an error when the request
// is oversized or does not resolve, the queue is full, the retention bound
// cannot admit another job, or the server is closed. Registration, retention
// eviction and the (non-blocking) enqueue happen under one lock, so a full
// queue never unregisters a neighbour's job and Close — which flips s.closed
// under the same lock before stopping the runners — can never strand a job
// in the queue.
func (s *Server) Submit(request kind) (*Job, error) {
	k, err := admit(request)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.evictTerminalLocked(s.cfg.maxJobs() - 1)
	if len(s.jobs) >= s.cfg.maxJobs() {
		return nil, fmt.Errorf("job table full (%d active jobs): %w", len(s.jobs), ErrBusy)
	}
	s.seq++
	job := &Job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		kind:    k,
		fan:     newFanout(s.cfg.EventRing),
		created: time.Now(),
		status:  StatusQueued,
	}
	select {
	case s.queue <- job:
	default:
		return nil, fmt.Errorf("job queue full (%d queued): %w", cap(s.queue), ErrBusy)
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	return job, nil
}

// evictTerminalLocked drops the oldest terminal jobs until at most keep
// remain in the table. Active (queued/running) jobs are never evicted.
// Callers hold s.mu.
func (s *Server) evictTerminalLocked(keep int) {
	if keep < 0 || len(s.jobs) <= keep {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if len(s.jobs) <= keep {
			kept = append(kept, s.order[i:]...)
			break
		}
		if s.jobs[id].Status().Terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns the job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Stats snapshots the store counters and job tallies.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	st := Stats{Store: s.store.Stats()}
	for _, j := range jobs {
		st.Jobs.Total++
		switch j.Status() {
		case StatusQueued:
			st.Jobs.Queued++
		case StatusRunning:
			st.Jobs.Running++
		case StatusDone:
			st.Jobs.Done++
		case StatusFailed:
			st.Jobs.Failed++
		case StatusCancelled:
			st.Jobs.Cancelled++
		}
	}
	return st
}

// runner drains the job queue until the server closes.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			s.drain()
			return
		case job := <-s.queue:
			s.run(job)
		}
	}
}

// drain marks every job still queued cancelled, so clients polling them see
// a terminal state once the server shuts down.
func (s *Server) drain() {
	for {
		select {
		case job := <-s.queue:
			job.finish(nil, nil, true)
		default:
			return
		}
	}
}

// run is the one job runner: queued → running, the worker-bound clamp, the
// kind's own work, then finish.
func (s *Server) run(job *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	// A job cancelled while queued never starts, and neither does one the
	// server closed on: the runner's select may still pick it off the queue.
	if s.ctx.Err() != nil || !job.begin(cancel) {
		job.finish(nil, nil, true)
		return
	}
	// A job may lower the worker bound for itself but never raise it above
	// the server's — worker counts are a server capacity decision, not a
	// client-controlled one.
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if _, _, w := job.kind.request(); w > 0 && w < workers {
		workers = w
	}
	result, err := job.kind.run(ctx, env{store: s.store, workers: workers, fan: job.fan, progress: job.progress})
	job.finish(result, err, ctx.Err() != nil)
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns the job's lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Subscribe attaches an event consumer to the job's stream (see
// fanout.Subscribe). The mask is intersected with StreamKinds — kinds outside
// it are never captured in the first place.
func (j *Job) Subscribe(mask obs.KindSet, buffer int) ([]obs.Event, <-chan obs.Event, func()) {
	return j.fan.Subscribe(mask&StreamKinds, buffer)
}

// begin transitions queued → running; it reports false when the job was
// cancelled while queued.
func (j *Job) begin(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// requestCancel marks a queued job cancelled, or cancels a running job's
// context. Terminal jobs are left untouched.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCancelled
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// progress records the job's completed and store-served cell counts.
func (j *Job) progress(done, cached int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cellsDone, j.cellsCached = done, cached
}

// finish records the terminal state and closes the event stream: cancelled
// when the run's context was cancelled or the job was cancelled while queued,
// otherwise failed on err, otherwise done. The result is kept in every case —
// a cancelled job keeps the partial result its kind accumulated.
func (j *Job) finish(result any, err error, cancelled bool) {
	j.mu.Lock()
	j.result = result
	j.finished = time.Now()
	switch {
	case cancelled || j.status == StatusCancelled:
		j.status = StatusCancelled
		j.err = context.Canceled
	case err != nil:
		j.status = StatusFailed
		j.err = err
	default:
		j.status = StatusDone
	}
	j.mu.Unlock()
	// Closed outside the lock after the terminal state is visible, so a
	// subscriber that sees its channel close finds the result in place.
	j.fan.Close()
}
