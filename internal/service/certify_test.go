package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/obs"
)

// certifySpec is a cell that certifies quickly: a short surveillance-city
// mission against a loose threshold, so the interval closes below it within
// the first batch and early stopping fires well under the budget.
const certifySpec = `{"scenario":"surveillance-city","duration":"2s","threshold":0.5,"confidence":0.9,"max_seeds":64,"batch":8}`

func postCertify(t *testing.T, url, spec string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(url+"/certify", "application/json", strings.NewReader(spec))
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

// TestCertifyHTTPEndToEnd drives a certification campaign through the HTTP
// front end: submit, stream the certify_progress events, then fetch the
// terminal result and report.
func TestCertifyHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	view, code := postCertify(t, ts.URL, certifySpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /certify = %d", code)
	}
	if view.Certify == nil || view.Spec.Scenario != "" || view.Falsify != nil {
		t.Fatalf("certify job view carries the wrong spec: %+v", view)
	}
	if view.Scenario != "surveillance-city" || view.Cells.Total != 64 {
		t.Fatalf("view = %+v, want scenario surveillance-city, 64 cells", view)
	}

	// The event stream carries well-formed certify_progress events and closes
	// with the job; the last one carries the terminal verdict.
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var progress int
	var last obs.CertifyProgress
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		e, err := obs.UnmarshalEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("malformed event line %q: %v", sc.Text(), err)
		}
		if ev, ok := e.(obs.CertifyProgress); ok {
			progress++
			if ev.Seeds == 0 || ev.MaxSeeds != 64 || ev.Threshold != 0.5 {
				t.Errorf("malformed progress event: %+v", ev)
			}
			last = ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("stream carried no CertifyProgress events")
	}
	if last.Verdict != string(certify.VerdictCertified) {
		t.Fatalf("terminal progress verdict = %q, want certified (event %+v)", last.Verdict, last)
	}

	done := waitTerminal(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job status = %s (err %q)", done.Status, done.Error)
	}
	res := done.CertifyResult
	if res == nil {
		t.Fatal("terminal certify job has no result")
	}
	if res.Verdict != certify.VerdictCertified {
		t.Fatalf("verdict = %q, want certified (result %+v)", res.Verdict, res)
	}
	// Early stopping fired: the loose threshold is settled well under budget.
	if res.Seeds >= res.MaxSeeds {
		t.Errorf("no early stop: consumed %d of %d seeds", res.Seeds, res.MaxSeeds)
	}
	if res.Seeds != last.Seeds || res.Crashes != last.Crashes {
		t.Errorf("result (%d seeds, %d crashes) disagrees with final event (%d, %d)",
			res.Seeds, res.Crashes, last.Seeds, last.Crashes)
	}
	if done.Cells.Done != res.Seeds {
		t.Errorf("cells done = %d, want %d", done.Cells.Done, res.Seeds)
	}
	if res.Hi >= res.Threshold || res.Lo > res.Estimate || res.Estimate > res.Hi {
		t.Errorf("certified interval inconsistent: est %v in [%v, %v] vs threshold %v",
			res.Estimate, res.Lo, res.Hi, res.Threshold)
	}

	// /report serves the certify.Result for certify jobs.
	var report certify.Result
	if code := getJSON(t, ts.URL+"/jobs/"+view.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("GET report = %d", code)
	}
	a, _ := json.Marshal(&report)
	b, _ := json.Marshal(res)
	if !bytes.Equal(a, b) {
		t.Errorf("/report and job view disagree:\n%s\n%s", a, b)
	}
}

// TestCertifyDeterministicOverHTTP: two identical certification requests
// through the service produce byte-identical results — the wire preserves the
// engine's determinism contract.
func TestCertifyDeterministicOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var want []byte
	for i := 0; i < 2; i++ {
		view, code := postCertify(t, ts.URL, certifySpec)
		if code != http.StatusAccepted {
			t.Fatalf("POST /certify = %d", code)
		}
		done := waitTerminal(t, ts, view.ID)
		if done.Status != StatusDone {
			t.Fatalf("run %d: status %s (err %q)", i, done.Status, done.Error)
		}
		got, _ := json.Marshal(done.CertifyResult)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("campaigns diverged:\n%s\n%s", want, got)
		}
	}
}

// TestCertifyValidation: bad certification requests bounce with 400 before
// any work queues.
func TestCertifyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, body string }{
		{"missing scenario", `{"threshold":0.01}`},
		{"unknown scenario", `{"scenario":"no-such-scenario","threshold":0.01}`},
		{"missing threshold", `{"scenario":"surveillance-city"}`},
		{"threshold at one", `{"scenario":"surveillance-city","threshold":1}`},
		{"bad confidence", `{"scenario":"surveillance-city","threshold":0.01,"confidence":1.2}`},
		{"bad activation", `{"scenario":"surveillance-city","threshold":0.01,"fault_activation":-0.5}`},
		{"boost without sporadic model", `{"scenario":"surveillance-city","threshold":0.01,"boost":2}`},
		{"bad policy override", `{"scenario":"surveillance-city","threshold":0.01,"overrides":{"policy":"warp"}}`},
		{"negative horizon", `{"scenario":"surveillance-city","threshold":0.01,"duration":"-1s"}`},
		{"unknown field", `{"scenario":"surveillance-city","threshold":0.01,"bogus":1}`},
	} {
		if _, code := postCertify(t, ts.URL, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}
}
