package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzSubmitDecode drives the one POST decode path with arbitrary bodies: the
// first byte picks the route, the rest is the body. Whatever the bytes,
// decoding and admission never panic, an admitted request never exceeds
// maxCellsPerJob, and admitting the same request twice resolves to the same
// job — the same view and, for a sweep, the same seeds and cache keys.
func FuzzSubmitDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		route := submitRoutes[int(data[0])%len(submitRoutes)]
		request, err := route.decode(bytes.NewReader(data[1:]))
		if err != nil {
			return
		}
		first, err := admit(request)
		if err != nil {
			return
		}
		_, cells, _ := first.request()
		if cells < 1 || cells > maxCellsPerJob {
			t.Fatalf("%s admitted with %d cells (limit %d)", route.path, cells, maxCellsPerJob)
		}
		second, err := admit(request)
		if err != nil {
			t.Fatalf("%s: second admission failed: %v", route.path, err)
		}
		if a, b := resolvedView(t, first), resolvedView(t, second); !bytes.Equal(a, b) {
			t.Fatalf("%s resolved twice to different jobs:\n%s\n%s", route.path, a, b)
		}
		if js, ok := first.(JobSpec); ok {
			again := second.(JobSpec)
			if len(js.seeds) != cells || len(js.keys) != cells {
				t.Fatalf("sweep of %d cells resolved %d seeds, %d keys", cells, len(js.seeds), len(js.keys))
			}
			if !slices.Equal(js.seeds, again.seeds) || !slices.Equal(js.keys, again.keys) {
				t.Fatal("sweep resolved to different seeds or cache keys")
			}
		}
	})
}

// resolvedView is the wire form of a resolved request as a queued job.
func resolvedView(t *testing.T, k kind) []byte {
	var v JobView
	k.view(&v, nil)
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
