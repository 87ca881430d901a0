package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/falsify"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// JobView is the JSON projection of a Job returned by the job endpoints.
// Exactly one of Spec, Falsify and Certify is populated, matching the job
// type.
type JobView struct {
	ID       string          `json:"id"`
	Scenario string          `json:"scenario"`
	Status   Status          `json:"status"`
	Spec     JobSpec         `json:"spec,omitzero"`
	Falsify  *FalsifyJobSpec `json:"falsify,omitempty"`
	Certify  *CertifyJobSpec `json:"certify,omitempty"`
	Cells    CellsView       `json:"cells"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	Error    string          `json:"error,omitempty"`
	// Report is present once a sweep job reached a terminal state;
	// FalsifyResult and CertifyResult are its campaign-job counterparts.
	Report        *ReportView     `json:"report,omitempty"`
	FalsifyResult *falsify.Result `json:"falsify_result,omitempty"`
	CertifyResult *certify.Result `json:"certify_result,omitempty"`
}

// CellsView is the job's grid-cell progress.
type CellsView struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
}

// ReportView is the JSON projection of a fleet.Report: the aggregates plus
// one row per mission with its deterministic verdict.
type ReportView struct {
	// Policy is the canonical switching-policy spec every mission of the job
	// ran ("soter-fig9" unless overridden) — sweep output stays
	// self-describing when jobs differ only by policy.
	Policy              string     `json:"policy"`
	Missions            int        `json:"missions"`
	Failed              int        `json:"failed"`
	Crashes             int        `json:"crashes"`
	Landings            int        `json:"landings"`
	Disengagements      int        `json:"disengagements"`
	Reengagements       int        `json:"reengagements"`
	InvariantViolations int        `json:"invariant_violations"`
	DroppedFirings      int        `json:"dropped_firings"`
	SimTime             Duration   `json:"sim_time"`
	Wall                Duration   `json:"wall"`
	DistanceKm          float64    `json:"distance_km"`
	Workers             int        `json:"workers"`
	Results             []CellView `json:"results"`
}

// CellView is one mission's verdict inside a ReportView.
type CellView struct {
	Name    string      `json:"name"`
	Seed    int64       `json:"seed"`
	Cached  bool        `json:"cached,omitempty"`
	WallMS  float64     `json:"wall_ms"`
	Error   string      `json:"error,omitempty"`
	Metrics sim.Metrics `json:"metrics,omitzero"`
}

// reportView projects a fleet report into its wire form; policy is the job's
// canonical switching-policy spec.
func reportView(rep *fleet.Report, policy string) *ReportView {
	if rep == nil {
		return nil
	}
	v := &ReportView{
		Policy:              policy,
		Missions:            rep.Missions,
		Failed:              rep.Failed,
		Crashes:             rep.Crashes,
		Landings:            rep.Landings,
		Disengagements:      rep.Disengagements,
		Reengagements:       rep.Reengagements,
		InvariantViolations: rep.InvariantViolations,
		DroppedFirings:      rep.DroppedFirings,
		SimTime:             Duration(rep.SimTime),
		Wall:                Duration(rep.Wall),
		DistanceKm:          rep.DistanceKm,
		Workers:             rep.Workers,
		Results:             make([]CellView, 0, len(rep.Results)),
	}
	for _, res := range rep.Results {
		cell := CellView{
			Name:   res.Name,
			Seed:   res.Seed,
			Cached: res.Cached,
			WallMS: float64(res.Wall) / float64(time.Millisecond),
		}
		if res.Err != nil {
			cell.Error = res.Err.Error()
		} else {
			cell.Metrics = res.Metrics
		}
		v.Results = append(v.Results, cell)
	}
	return v
}

// view snapshots the job into its wire form.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	scenario, cells, _ := j.kind.request()
	v := JobView{
		ID:       j.id,
		Scenario: scenario,
		Status:   j.status,
		Cells:    CellsView{Total: cells, Done: j.cellsDone, Cached: j.cellsCached},
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	j.kind.view(&v, j.result)
	return v
}

// report is the job's GET /jobs/{id}/report body.
func (j *Job) report() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.kind.report(j.result)
}

// maxBodyBytes bounds a POST body. The largest admissible request, an
// explicit list of maxCellsPerJob seeds, fits well inside it.
const maxBodyBytes = 2 << 20

// submitRoutes maps each POST path to the request form its body decodes
// into.
var submitRoutes = []struct {
	path, what string
	decode     func(io.Reader) (kind, error)
}{
	{"/jobs", "job spec", decodeAs[JobSpec]},
	{"/falsify", "falsify spec", decodeAs[FalsifyJobSpec]},
	{"/certify", "certify spec", decodeAs[CertifyJobSpec]},
}

// decodeAs decodes one request body as K, rejecting unknown fields.
func decodeAs[K kind](r io.Reader) (kind, error) {
	var k K
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&k)
	return k, err
}

// handleSubmit is the one POST handler: decode the bounded body, Submit,
// answer 202 with the queued job's view.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, what string, decode func(io.Reader) (kind, error)) {
	request, err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("decode %s: %w", what, err))
		return
	}
	job, err := s.Submit(request)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.view())
}

// scenarioView is one /scenarios catalog entry.
type scenarioView struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Duration    Duration `json:"duration"`
}

// Handler adapts the server to HTTP. Routes:
//
//	GET    /healthz             liveness probe
//	GET    /scenarios           the scenario catalog (incl. auto-registered
//	                            falsified/<hash> counterexamples)
//	GET    /stats               cache counters and job tallies
//	POST   /jobs                submit a JobSpec; 202 + JobView
//	POST   /falsify             submit a FalsifyJobSpec; 202 + JobView
//	POST   /certify             submit a CertifyJobSpec; 202 + JobView
//	GET    /falsify/strategies  the falsification strategy catalog
//	GET    /jobs                list jobs (both types)
//	GET    /jobs/{id}           job status, progress and (when done) result
//	GET    /jobs/{id}/events    the job's event stream as JSON Lines
//	GET    /jobs/{id}/report    the report/result alone; 409 until terminal
//	POST   /jobs/{id}/cancel    cancel (also DELETE /jobs/{id})
//	GET    /store/{key}         raw result bytes by fingerprint — the peer
//	                            protocol (local tiers only, never recursive)
//	GET    /debug/pprof/...     live runtime profiles (CPU, heap, goroutine)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Registering pprof on the server's own mux (rather than the global
	// http.DefaultServeMux side effect of a blank import) keeps the profiles
	// reachable however the handler is mounted — `go tool pprof
	// http://host/debug/pprof/profile` against a serving instance under fleet
	// load is the live counterpart of soter-bench's -cpuprofile.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, r *http.Request) {
		specs := scenario.All()
		out := make([]scenarioView, 0, len(specs))
		for _, sp := range specs {
			out = append(out, scenarioView{Name: sp.Name, Description: sp.Description, Duration: Duration(sp.Duration)})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	// The peer protocol: siblings configured with this server in their -peers
	// list fetch result bytes here. Only the local tiers (memory, disk) are
	// consulted, so a peer lookup can never recurse into further peer
	// lookups; the checksum header lets the fetcher reject garbled bodies.
	mux.HandleFunc("GET /store/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !store.ValidKey(key) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed store key %q", key))
			return
		}
		val, ok := s.store.GetLocal(r.Context(), key)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no entry for %s", key))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(store.SumHeader, store.Sum(val))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(val)
	})
	for _, route := range submitRoutes {
		mux.HandleFunc("POST "+route.path, func(w http.ResponseWriter, r *http.Request) {
			s.handleSubmit(w, r, route.what, route.decode)
		})
	}
	mux.HandleFunc("GET /falsify/strategies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, falsify.StrategyNames())
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]JobView, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.view())
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := s.Job(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, j.view())
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	})
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		if !j.Status().Terminal() {
			writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s; report not ready", j.ID(), j.Status()))
			return
		}
		writeJSON(w, http.StatusOK, j.report())
	})
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	cancel := func(w http.ResponseWriter, r *http.Request) {
		// Hold the *Job across the cancel so a concurrent retention eviction
		// (which only removes table entries) cannot leave us dereferencing a
		// second, failed lookup.
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		j.requestCancel()
		writeJSON(w, http.StatusOK, j.view())
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /jobs/{id}", cancel)
	return mux
}

// handleEvents streams the job's event stream as JSON Lines: first the replay
// ring (so a subscriber arriving after the job finished still sees the whole
// retained stream), then live events until the job ends or the client leaves.
// An optional ?kinds=mode_switch,crash narrows the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	mask := StreamKinds
	if arg := r.URL.Query().Get("kinds"); arg != "" {
		var err error
		if mask, err = parseKinds(arg); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	replay, live, cancel := j.Subscribe(mask, subscriberBuffer)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Send the header now: a subscriber to a queued job must not wait
		// for the job's first event to learn the stream is open.
		flusher.Flush()
	}
	writeEvent := func(e obs.Event) bool {
		line, err := obs.MarshalEvent(e)
		if err != nil {
			return false
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, e := range replay {
		if !writeEvent(e) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				return
			}
			if !writeEvent(e) {
				return
			}
		}
	}
}

// parseKinds resolves a comma-separated list of event kind names ("crash",
// "mode_switch", ...) into a mask, restricted to the kinds the fan-out
// captures.
func parseKinds(arg string) (obs.KindSet, error) {
	byName := make(map[string]obs.Kind, obs.KindCount)
	for k := obs.Kind(0); int(k) < obs.KindCount; k++ {
		byName[k.String()] = k
	}
	var mask obs.KindSet
	for _, name := range strings.Split(arg, ",") {
		k, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return 0, fmt.Errorf("unknown event kind %q", name)
		}
		if !StreamKinds.Has(k) {
			// Valid kind, but one the fan-out never captures — an empty
			// 200 stream would look like a job that emits nothing.
			return 0, fmt.Errorf("event kind %q is not carried by job streams (streamed kinds: %s)",
				name, streamKindNames())
		}
		mask |= obs.Kinds(k)
	}
	return mask, nil
}

// streamKindNames lists the wire names of StreamKinds, for error messages.
func streamKindNames() string {
	var names []string
	for k := obs.Kind(0); int(k) < obs.KindCount; k++ {
		if StreamKinds.Has(k) {
			names = append(names, k.String())
		}
	}
	return strings.Join(names, ", ")
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
