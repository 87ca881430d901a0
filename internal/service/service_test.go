package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestServer starts a service plus an HTTP front end, both torn down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, buf.String())
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the full lifecycle over the wire: submit a 2-seed
// job, consume its whole JSONL event stream, then fetch the terminal report
// and stats.
func TestHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	view := postJob(t, ts, `{"scenario":"surveillance-city","overrides":{"duration":"2s"},"seeds":[1,2]}`)
	if view.Status != StatusQueued && view.Status != StatusRunning {
		t.Fatalf("submitted job status = %s", view.Status)
	}
	if view.Cells.Total != 2 {
		t.Fatalf("cells = %+v, want total 2", view.Cells)
	}

	// The event stream ends when the job does, replaying from the start for
	// late subscribers — so a plain GET sees the whole stream.
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	var starts, ends int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		e, err := obs.UnmarshalEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("malformed event line %q: %v", sc.Text(), err)
		}
		switch e.(type) {
		case obs.RunStart:
			starts++
		case obs.RunEnd:
			ends++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if starts != 2 || ends != 2 {
		t.Errorf("stream saw %d RunStart / %d RunEnd events, want 2/2", starts, ends)
	}

	var done JobView
	if code := getJSON(t, ts.URL+"/jobs/"+view.ID, &done); code != http.StatusOK {
		t.Fatalf("GET job = %d", code)
	}
	if done.Status != StatusDone {
		t.Fatalf("job status = %s (err %q), want done", done.Status, done.Error)
	}
	if done.Report == nil || done.Report.Missions != 2 || done.Report.Failed != 0 {
		t.Fatalf("report = %+v", done.Report)
	}
	if done.Report.Crashes != 0 {
		t.Errorf("RTA-protected job crashed %d times", done.Report.Crashes)
	}
	if done.Cells.Done != 2 {
		t.Errorf("cells done = %d, want 2", done.Cells.Done)
	}

	var report ReportView
	if code := getJSON(t, ts.URL+"/jobs/"+view.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("GET report = %d", code)
	}
	if len(report.Results) != 2 {
		t.Fatalf("report rows = %d", len(report.Results))
	}

	var stats Stats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET stats = %d", code)
	}
	if stats.Jobs.Done != 1 || stats.Store.Memory.Misses != 2 || stats.Store.Memory.Entries != 2 || stats.Store.Fills != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestRepeatJobServedFromCache: resubmitting an identical job answers every
// cell from the cache with metrics identical to the fresh run.
func TestRepeatJobServedFromCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	spec := `{"scenario":"canyon-corridor","overrides":{"duration":"2s"},"seeds":[7]}`
	first := waitTerminal(t, ts, postJob(t, ts, spec).ID)
	if first.Status != StatusDone || first.Cells.Cached != 0 {
		t.Fatalf("first run: %+v", first.Cells)
	}
	second := waitTerminal(t, ts, postJob(t, ts, spec).ID)
	if second.Status != StatusDone || second.Cells.Cached != 1 {
		t.Fatalf("second run not cached: %+v (err %q)", second.Cells, second.Error)
	}
	a, _ := json.Marshal(first.Report.Results[0].Metrics)
	b, _ := json.Marshal(second.Report.Results[0].Metrics)
	if !bytes.Equal(a, b) {
		t.Errorf("cached metrics diverge from fresh run:\n%s\n%s", a, b)
	}
	if st := svc.Stats(); st.Store.Memory.Hits != 1 || st.Store.Fills != 1 {
		t.Errorf("store: memory hits = %d, fills = %d; want 1, 1", st.Store.Memory.Hits, st.Store.Fills)
	}
}

// waitTerminal polls the job until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var view JobView
		if code := getJSON(t, ts.URL+"/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		if view.Status.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, view.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobCancellationMidRun: a long job cancelled over HTTP reaches the
// cancelled state, keeps its partial report, and closes its event stream.
func TestJobCancellationMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 10 minutes of simulated endurance — far longer than the test runs.
	view := postJob(t, ts, `{"scenario":"random-endurance","overrides":{"duration":"10m"},"seeds":[1,2,3,4]}`)

	// Wait for the first event: proof the job is genuinely mid-run.
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("event stream ended before the job started: %v", sc.Err())
	}

	cancelReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs/"+view.ID+"/cancel", nil)
	cancelResp, err := http.DefaultClient.Do(cancelReq)
	if err != nil {
		t.Fatal(err)
	}
	cancelResp.Body.Close()
	if cancelResp.StatusCode != http.StatusOK {
		t.Fatalf("POST cancel = %d", cancelResp.StatusCode)
	}

	final := waitTerminal(t, ts, view.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
	if final.Report == nil {
		t.Fatal("cancelled job dropped its partial report")
	}
	if final.Report.Missions != 4 {
		t.Errorf("partial report covers %d missions, want 4", final.Report.Missions)
	}

	// The stream must terminate promptly now that the job is cancelled.
	done := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("event stream still open after cancellation")
	}
}

// TestQueuedJobStreamOpensImmediately: subscribing to a job still queued
// behind a long one gets its response header at once, not with the job's
// first event. The client deadline bounds the check, and the blocking job is
// cancelled so the server can shut down.
func TestQueuedJobStreamOpensImmediately(t *testing.T) {
	_, ts := newTestServer(t, Config{JobConcurrency: 1})
	blocker := postJob(t, ts, `{"scenario":"surveillance-city","overrides":{"duration":"2s"},"seed_count":4000}`)
	defer func() {
		resp, err := http.Post(ts.URL+"/jobs/"+blocker.ID+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitTerminal(t, ts, blocker.ID)
	}()
	queued := postJob(t, ts, `{"scenario":"surveillance-city","overrides":{"duration":"2s"},"seeds":[1]}`)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+queued.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no response header for a queued job's stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	var view JobView
	getJSON(t, ts.URL+"/jobs/"+queued.ID, &view)
	if view.Status != StatusQueued {
		t.Errorf("job status = %s, want queued behind the blocker", view.Status)
	}
}

// TestSubmitValidation: unresolvable requests are rejected with 400s before
// any work is queued.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown scenario", `{"scenario":"no-such-scenario"}`},
		{"bad override", `{"scenario":"surveillance-city","overrides":{"protection":"warp-drive"}}`},
		{"bad duration", `{"scenario":"surveillance-city","overrides":{"duration":"-3s"}}`},
		{"seed conflict", `{"scenario":"surveillance-city","seeds":[1],"seed_count":2}`},
		{"seed_start without count", `{"scenario":"surveillance-city","seed_start":100}`},
		{"unknown field", `{"scenario":"surveillance-city","bogus":true}`},
		// The φInv monitor runs in every simulation; there is no knob.
		{"invariant monitor", `{"scenario":"surveillance-city","overrides":{"invariant_monitor":false}}`},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
}

// TestOverrideRangeRejected: an out-of-range override the spec layer would
// read as "use the default" (or silently clamp) is refused at submit with a
// 400 naming the field, instead of running something else under the default
// spelling's cache key.
func TestOverrideRangeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, field, body string }{
		{"/jobs", "initial_battery", `{"scenario":"battery-stress","overrides":{"initial_battery":0}}`},
		{"/jobs", "drain_multiple", `{"scenario":"battery-stress","overrides":{"drain_multiple":0}}`},
		{"/jobs", "hysteresis", `{"scenario":"surveillance-city","overrides":{"hysteresis":0.5}}`},
		{"/jobs", "motion delta", `{"scenario":"surveillance-city","overrides":{"motion_delta":"-1s"}}`},
		{"/certify", "hysteresis", `{"scenario":"surveillance-city","threshold":0.01,"overrides":{"hysteresis":0.5}}`},
		// /certify overrides and /falsify base are a scenario.Delta: an
		// explicit non-positive "zero means default" knob is refused too.
		{"/certify", "initial_battery", `{"scenario":"battery-stress","threshold":0.01,"overrides":{"initial_battery":0}}`},
		{"/certify", "initial_battery", `{"scenario":"battery-stress","threshold":0.01,"overrides":{"initial_battery":-1}}`},
		{"/certify", "drain_multiple", `{"scenario":"battery-stress","threshold":0.01,"overrides":{"drain_multiple":-3}}`},
		{"/certify", "motion_delta_ns", `{"scenario":"surveillance-city","threshold":0.01,"overrides":{"motion_delta_ns":-5}}`},
		{"/falsify", "initial_battery", `{"scenario":"surveillance-city","base":{"initial_battery":-1}}`},
		{"/falsify", "hysteresis", `{"scenario":"surveillance-city","base":{"hysteresis":-2}}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decodeErr != nil || !strings.Contains(body.Error, tc.field) {
			t.Errorf("POST %s %s: status %d, error %q (decode: %v), want 400 naming %q",
				tc.path, tc.body, resp.StatusCode, body.Error, decodeErr, tc.field)
		}
	}
}

// TestAdmissionBounds: an oversized request is refused before any per-cell
// work — a 2^40-seed sweep gets its 400 at once instead of being expanded
// and fingerprinted — and an oversized body is refused with 413.
func TestAdmissionBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, path, body string }{
		{"sweep seed_count", "/jobs", `{"scenario":"surveillance-city","seed_count":1099511627776}`},
		{"sweep seed list", "/jobs", `{"scenario":"surveillance-city","seeds":[` +
			strings.Repeat("1,", maxCellsPerJob) + `1]}`},
		{"falsify budget", "/falsify", `{"scenario":"surveillance-city","budget":65537}`},
		{"certify max_seeds", "/certify", `{"scenario":"surveillance-city","threshold":0.01,"max_seeds":65537}`},
	} {
		start := time.Now()
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: rejection took %v", tc.name, took)
		}
	}
	if _, err := admit(JobSpec{Scenario: "surveillance-city", SeedCount: maxCellsPerJob}); err != nil {
		t.Errorf("a sweep of exactly maxCellsPerJob seeds was refused: %v", err)
	}

	body := `{"scenario":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
}

// TestJobRetentionBound: the server retains at most MaxJobs jobs, evicting
// the oldest terminal ones first and never an active job.
func TestJobRetentionBound(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxJobs: 2})
	spec := `{"scenario":"surveillance-city","overrides":{"duration":"1s"},"seeds":[1]}`
	first := postJob(t, ts, spec)
	waitTerminal(t, ts, first.ID)
	second := postJob(t, ts, spec)
	waitTerminal(t, ts, second.ID)
	third := postJob(t, ts, spec) // evicts the oldest terminal job
	waitTerminal(t, ts, third.ID)
	if _, ok := svc.Job(first.ID); ok {
		t.Errorf("job %s survived eviction", first.ID)
	}
	if len(svc.Jobs()) != 2 {
		t.Errorf("retained %d jobs, want 2", len(svc.Jobs()))
	}
	// Both retained jobs are listable and intact over HTTP.
	var views []JobView
	if code := getJSON(t, ts.URL+"/jobs", &views); code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	if len(views) != 2 || views[0].ID != second.ID || views[1].ID != third.ID {
		t.Errorf("job listing = %+v", views)
	}
}

// TestSubmitAfterClose: a closed server rejects submissions instead of
// stranding jobs in the queue.
func TestSubmitAfterClose(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(JobSpec{Scenario: "surveillance-city"}); err == nil {
		t.Fatal("Submit succeeded on a closed server")
	}
}

// TestEventKindFilter: ?kinds= narrows the stream to the requested kinds.
func TestEventKindFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	view := postJob(t, ts, `{"scenario":"surveillance-city","overrides":{"duration":"2s"},"seeds":[3]}`)
	waitTerminal(t, ts, view.ID)
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events?kinds=run_end")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		e, err := obs.UnmarshalEvent(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.(obs.RunEnd); !ok {
			t.Errorf("filtered stream leaked %T", e)
		}
		n++
	}
	if n != 1 {
		t.Errorf("run_end events = %d, want 1", n)
	}
	if code := getJSON(t, fmt.Sprintf("%s/jobs/%s/events?kinds=warp", ts.URL, view.ID), nil); code != http.StatusBadRequest {
		t.Errorf("bad kinds filter = %d, want 400", code)
	}
	// A real obs kind that job streams never carry must be rejected too — a
	// 200 with a permanently empty stream would be indistinguishable from a
	// silent job.
	if code := getJSON(t, fmt.Sprintf("%s/jobs/%s/events?kinds=node_fired", ts.URL, view.ID), nil); code != http.StatusBadRequest {
		t.Errorf("non-streamed kinds filter = %d, want 400", code)
	}
}
