package service

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire-format goldens under testdata/wire")

// wireClock matches the wall-clock fields of a job view or report, whose
// values differ between runs; everything else on the wire is deterministic.
var wireClock = regexp.MustCompile(`"(created|started|finished|wall|wall_ms)": ("[^"]*"|[-+.0-9eE]+)`)

// zeroClock rewrites every wall-clock value to its zero.
func zeroClock(b []byte) []byte {
	return wireClock.ReplaceAllFunc(b, func(m []byte) []byte {
		name := wireClock.FindSubmatch(m)[1]
		switch string(name) {
		case "wall":
			return []byte(`"wall": "0s"`)
		case "wall_ms":
			return []byte(`"wall_ms": 0`)
		}
		return []byte(`"` + string(name) + `": "0001-01-01T00:00:00Z"`)
	})
}

// getRaw fetches url and returns the body with its clock fields zeroed.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return zeroClock(body)
}

// TestWireFormatGolden pins the bytes of GET /jobs/{id} and GET
// /jobs/{id}/report for a finished short job of each kind. Clients decode
// both (perfbench, the CI end-to-end), so any change to field names, order,
// omission rules or number formatting fails here. Run with -update to
// re-record after an intended wire change.
func TestWireFormatGolden(t *testing.T) {
	for _, k := range lifecycleKinds {
		t.Run(k.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			id := runToDone(t, nil, ts, k.path, k.short, "")
			for _, g := range []struct{ file, url string }{
				{k.name + "_job.json", ts.URL + "/jobs/" + id},
				{k.name + "_report.json", ts.URL + "/jobs/" + id + "/report"},
			} {
				got := getRaw(t, g.url)
				path := filepath.Join("testdata", "wire", g.file)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s changed on the wire.\ngot:\n%s\nwant:\n%s", g.file, got, want)
				}
			}
		})
	}
}
