package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// lifecycleKinds is one short and one long request per job kind. The short
// request finishes in seconds; the long one (thousands of 10-minute
// missions) runs far longer than any test, so it is reliably mid-run, or
// still queued behind another, when the test acts on it.
var lifecycleKinds = []struct {
	name, path  string
	short, long string
	result      func(JobView) bool // the kind's own result field is set
}{
	{
		name:   "sweep",
		path:   "/jobs",
		short:  `{"scenario":"surveillance-city","overrides":{"duration":"2s"},"seeds":[1]}`,
		long:   `{"scenario":"surveillance-city","overrides":{"duration":"10m"},"seed_count":4096}`,
		result: func(v JobView) bool { return v.Report != nil },
	},
	{
		name:   "falsify",
		path:   "/falsify",
		short:  falsifySpec,
		long:   `{"scenario":"surveillance-city","strategy":"random","seed":1,"budget":4096,"duration":"10m"}`,
		result: func(v JobView) bool { return v.FalsifyResult != nil },
	},
	{
		name:   "certify",
		path:   "/certify",
		short:  certifySpec,
		long:   `{"scenario":"surveillance-city","duration":"10m","threshold":0.001,"max_seeds":4096}`,
		result: func(v JobView) bool { return v.CertifyResult != nil },
	},
}

// blockerSpec is a long sweep that occupies the single job runner, so the
// next submission stays queued behind it.
const blockerSpec = `{"scenario":"surveillance-city","overrides":{"duration":"10m"},"seed_count":4096}`

// TestJobLifecycleParity holds every job kind to the same lifecycle: the
// same terminal status and error, the same partial-result rule and the same
// event-stream closure, whether the job runs to done, is cancelled while
// queued, is cancelled mid-run, or is still queued when the server closes.
func TestJobLifecycleParity(t *testing.T) {
	cases := []struct {
		name       string
		act        func(t *testing.T, svc *Server, ts *httptest.Server, path, short, long string) string
		status     Status
		err        string
		keepResult bool
	}{
		{"done", runToDone, StatusDone, "", true},
		{"cancel-queued", cancelQueued, StatusCancelled, "context canceled", false},
		{"cancel-mid-run", cancelMidRun, StatusCancelled, "context canceled", true},
		{"close-queued", closeQueued, StatusCancelled, "context canceled", false},
	}
	for _, k := range lifecycleKinds {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				svc, ts := newTestServer(t, Config{Workers: 2})
				id := tc.act(t, svc, ts, k.path, k.short, k.long)
				var v JobView
				if code := getJSON(t, ts.URL+"/jobs/"+id, &v); code != http.StatusOK {
					t.Fatalf("GET job = %d", code)
				}
				if v.Status != tc.status || v.Error != tc.err {
					t.Errorf("terminal state = %s %q, want %s %q", v.Status, v.Error, tc.status, tc.err)
				}
				if got := k.result(v); got != tc.keepResult {
					t.Errorf("result kept = %v, want %v", got, tc.keepResult)
				}
				if n := resultFields(v); n > 1 || (n == 1) != tc.keepResult {
					t.Errorf("view carries %d result fields", n)
				}
				if v.Finished.IsZero() {
					t.Error("terminal job has no finish time")
				}
			})
		}
	}
}

// resultFields counts the populated result fields of a view.
func resultFields(v JobView) int {
	n := 0
	for _, set := range []bool{v.Report != nil, v.FalsifyResult != nil, v.CertifyResult != nil} {
		if set {
			n++
		}
	}
	return n
}

// post submits body to path and returns the accepted job's id.
func post(t *testing.T, ts *httptest.Server, path, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// streamClosed opens the job's event stream and returns a channel closed once
// the server ends it. The request runs in the background: the server sends
// the response header with the first event, so a queued job's stream would
// block the caller.
func streamClosed(t *testing.T, ts *httptest.Server, id string) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
	}()
	return done
}

// awaitClosed fails the test unless the stream ends promptly.
func awaitClosed(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("event stream still open")
	}
}

// awaitStatus polls the job until it reports want.
func awaitStatus(t *testing.T, ts *httptest.Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		var v JobView
		getJSON(t, ts.URL+"/jobs/"+id, &v)
		if v.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelJob cancels the job over HTTP.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST cancel = %d", resp.StatusCode)
	}
}

func runToDone(t *testing.T, _ *Server, ts *httptest.Server, path, short, _ string) string {
	id := post(t, ts, path, short)
	awaitClosed(t, streamClosed(t, ts, id))
	return id
}

func cancelMidRun(t *testing.T, _ *Server, ts *httptest.Server, path, _, long string) string {
	id := post(t, ts, path, long)
	closed := streamClosed(t, ts, id)
	awaitStatus(t, ts, id, StatusRunning)
	cancelJob(t, ts, id)
	awaitClosed(t, closed)
	return id
}

// queueBehindBlocker occupies the runner with a long sweep and submits the
// job under test behind it.
func queueBehindBlocker(t *testing.T, ts *httptest.Server, path, long string) (blocker, id string) {
	blocker = post(t, ts, "/jobs", blockerSpec)
	awaitStatus(t, ts, blocker, StatusRunning)
	id = post(t, ts, path, long)
	awaitStatus(t, ts, id, StatusQueued)
	return blocker, id
}

func cancelQueued(t *testing.T, _ *Server, ts *httptest.Server, path, _, long string) string {
	blocker, id := queueBehindBlocker(t, ts, path, long)
	closed := streamClosed(t, ts, id)
	cancelJob(t, ts, id)
	cancelJob(t, ts, blocker)
	awaitClosed(t, closed)
	return id
}

func closeQueued(t *testing.T, svc *Server, ts *httptest.Server, path, _, long string) string {
	_, id := queueBehindBlocker(t, ts, path, long)
	closed := streamClosed(t, ts, id)
	svc.Close()
	awaitClosed(t, closed)
	return id
}
