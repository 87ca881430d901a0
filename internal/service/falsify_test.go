package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/falsify"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// falsifySpec is a campaign that reliably finds counterexamples fast: the
// same (scenario, strategy, seed, budget, duration) tuple the committed
// corpus under internal/falsify/testdata/falsified was generated from.
const falsifySpec = `{"scenario":"surveillance-city","strategy":"guided:4","seed":1,"budget":16,"duration":"4s"}`

func postFalsify(t *testing.T, url, spec string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(url+"/falsify", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

// TestFalsifyHTTPEndToEnd drives a falsification campaign through the HTTP
// front end: submit, stream the campaign events, then fetch the terminal
// result and report.
func TestFalsifyHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	view, code := postFalsify(t, ts.URL, falsifySpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /falsify = %d", code)
	}
	if view.Falsify == nil || view.Spec.Scenario != "" {
		t.Fatalf("falsify job view carries the wrong spec: %+v", view)
	}
	if view.Scenario != "surveillance-city" || view.Cells.Total != 16 {
		t.Fatalf("view = %+v, want scenario surveillance-city, 16 cells", view)
	}

	// The event stream carries well-formed campaign events and closes with
	// the job.
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var progress, finds int
	var lastProgress obs.CampaignProgress
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		e, err := obs.UnmarshalEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("malformed event line %q: %v", sc.Text(), err)
		}
		switch ev := e.(type) {
		case obs.CampaignProgress:
			progress++
			lastProgress = ev
		case obs.CounterexampleFound:
			finds++
			if ev.Fingerprint == "" || ev.Category == "" {
				t.Errorf("counterexample event missing identity: %+v", ev)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("stream carried no CampaignProgress events")
	}
	if lastProgress.Executions != 16 {
		t.Errorf("final progress executions = %d, want 16", lastProgress.Executions)
	}

	done := waitTerminal(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job status = %s (err %q)", done.Status, done.Error)
	}
	if done.FalsifyResult == nil {
		t.Fatal("terminal falsify job has no result")
	}
	if got := len(done.FalsifyResult.Counterexamples); got != finds {
		t.Errorf("result has %d counterexamples, stream announced %d", got, finds)
	}
	if got := len(done.FalsifyResult.Counterexamples); got == 0 {
		t.Error("the corpus-seeding campaign found nothing over HTTP")
	}
	if done.Cells.Done != 16 {
		t.Errorf("cells done = %d, want 16", done.Cells.Done)
	}

	// /report serves the campaign result for falsify jobs.
	var report falsify.Result
	if code := getJSON(t, ts.URL+"/jobs/"+view.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("GET report = %d", code)
	}
	a, _ := json.Marshal(&report)
	b, _ := json.Marshal(done.FalsifyResult)
	if !bytes.Equal(a, b) {
		t.Errorf("/report and job view disagree:\n%s\n%s", a, b)
	}
}

// TestFalsifyDeterministicOverHTTP: two identical campaigns through the
// service produce byte-identical results — the wire preserves the engine's
// determinism contract.
func TestFalsifyDeterministicOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var want []byte
	for i := 0; i < 2; i++ {
		view, code := postFalsify(t, ts.URL, falsifySpec)
		if code != http.StatusAccepted {
			t.Fatalf("POST /falsify = %d", code)
		}
		done := waitTerminal(t, ts, view.ID)
		if done.Status != StatusDone {
			t.Fatalf("run %d: status %s (err %q)", i, done.Status, done.Error)
		}
		got, _ := json.Marshal(done.FalsifyResult)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("campaigns diverged:\n%s\n%s", want, got)
		}
	}
}

// TestFalsifyRegisterExposesScenario: a register=true campaign's finds appear
// in the scenario registry, runnable as ordinary sweep jobs.
func TestFalsifyRegisterExposesScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := strings.Replace(falsifySpec, `"seed":1`, `"seed":1,"register":true`, 1)
	view, code := postFalsify(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /falsify = %d", code)
	}
	done := waitTerminal(t, ts, view.ID)
	if done.Status != StatusDone || len(done.FalsifyResult.Counterexamples) == 0 {
		t.Fatalf("campaign: %s, %d finds", done.Status, len(done.FalsifyResult.Counterexamples))
	}
	name := done.FalsifyResult.Counterexamples[0].Name
	if _, err := scenario.Resolve(name, scenario.Delta{}); err != nil {
		t.Fatalf("counterexample scenario %q not registered: %v", name, err)
	}
	// The registered counterexample runs as a plain sweep job.
	sweep := postJob(t, ts, `{"scenario":"`+name+`","seeds":[`+
		jsonInt(done.FalsifyResult.Counterexamples[0].Candidate.Seed)+`]}`)
	final := waitTerminal(t, ts, sweep.ID)
	if final.Status != StatusDone {
		t.Fatalf("replay sweep: %s (err %q)", final.Status, final.Error)
	}
	if final.Report == nil || final.Report.Crashes == 0 {
		t.Errorf("replaying the crash counterexample as a sweep saw no crash: %+v", final.Report)
	}
}

func jsonInt(v int64) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// TestFalsifyScheduleSeedsBoundedByBudget: a schedule campaign admitted as a
// one-cell job runs one schedule, however many random seeds its strategy
// spec names.
func TestFalsifyScheduleSeedsBoundedByBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	view, code := postFalsify(t, ts.URL, `{"scenario":"surveillance-city","strategy":"schedule:2000000000","budget":1,"duration":"200ms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /falsify = %d", code)
	}
	done := waitTerminal(t, ts, view.ID)
	if done.Status != StatusDone || done.FalsifyResult == nil {
		t.Fatalf("job status = %s (err %q)", done.Status, done.Error)
	}
	if got := done.FalsifyResult.Executions; got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

// TestFalsifyValidation: bad campaign requests bounce with 400 before any
// work queues.
func TestFalsifyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, body string }{
		{"missing scenario", `{}`},
		{"unknown scenario", `{"scenario":"no-such-scenario"}`},
		{"unknown strategy", `{"scenario":"surveillance-city","strategy":"annealing"}`},
		{"bad policy pool", `{"scenario":"surveillance-city","policies":["warp"]}`},
		{"unknown field", `{"scenario":"surveillance-city","bogus":1}`},
		{"negative budget", `{"scenario":"surveillance-city","budget":-2}`},
		{"negative horizon", `{"scenario":"surveillance-city","duration":"-1s"}`},
	} {
		if _, code := postFalsify(t, ts.URL, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}
}

// TestFalsifyStrategiesEndpoint: GET /falsify/strategies lists the registry.
func TestFalsifyStrategiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var names []string
	if code := getJSON(t, ts.URL+"/falsify/strategies", &names); code != http.StatusOK {
		t.Fatalf("GET /falsify/strategies = %d", code)
	}
	for _, want := range []string{"guided", "random", "schedule"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("strategy list %v missing %q", names, want)
		}
	}
}
