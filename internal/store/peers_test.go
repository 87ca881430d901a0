package store

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// peerHandler serves a fixed key set over the /store/{key} wire protocol.
func peerHandler(entries map[string][]byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/store/")
		val, ok := entries[key]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(SumHeader, Sum(val))
		w.Write(val)
	})
}

// TestPeersRendezvousDeterministic: every process computes the identical
// per-key probe order, and distinct keys spread across the peer set.
func TestPeersRendezvousDeterministic(t *testing.T) {
	bases := []string{"http://a:1", "http://b:1", "http://c:1"}
	p1, err := NewPeers(PeersConfig{Peers: bases})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPeers(PeersConfig{Peers: bases})
	if err != nil {
		t.Fatal(err)
	}
	firsts := make(map[string]bool)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("%032x", i)
		o1, o2 := p1.rendezvous(key), p2.rendezvous(key)
		for j := range o1 {
			if o1[j].base != o2[j].base {
				t.Fatalf("key %s: order diverges between processes: %s vs %s", key, o1[j].base, o2[j].base)
			}
		}
		firsts[o1[0].base] = true
	}
	if len(firsts) < 2 {
		t.Errorf("32 keys all rendezvous to the same first peer; hashing is not spreading")
	}
}

// TestPeersFetchThrough: a key held by a sibling is fetched over the wire; an
// unknown key is a clean miss.
func TestPeersFetchThrough(t *testing.T) {
	key := fmt.Sprintf("%032x", 7)
	val := []byte(`{"metrics":{"crashed":false}}`)
	ts := httptest.NewServer(peerHandler(map[string][]byte{key: val}))
	defer ts.Close()

	p, err := NewPeers(PeersConfig{Peers: []string{ts.URL}, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p.Get(context.Background(), key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	if _, ok := p.Get(context.Background(), fmt.Sprintf("%032x", 8)); ok {
		t.Fatal("unknown key reported as a peer hit")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPeersChecksumRejected: a response whose body does not match its
// X-Soter-Sum header is an error, never handed to the local tiers.
func TestPeersChecksumRejected(t *testing.T) {
	key := fmt.Sprintf("%032x", 7)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(SumHeader, Sum([]byte("what was stored")))
		w.Write([]byte("what arrived"))
	}))
	defer ts.Close()

	p, err := NewPeers(PeersConfig{Peers: []string{ts.URL}, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get(context.Background(), key); ok {
		t.Fatal("garbled peer response was accepted")
	}
	if st := p.Stats(); st.Errors != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want the mismatch counted as an error", st)
	}
}

// TestPeersMissingChecksumRejected: a 200 response without an X-Soter-Sum
// header is an error — every soter-serve sends one, so its absence means the
// body cannot be vouched for — and the lookup is a miss that leaves the
// local tiers empty.
func TestPeersMissingChecksumRejected(t *testing.T) {
	key := fmt.Sprintf("%032x", 8)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"metrics":{}}`))
	}))
	defer ts.Close()

	p, err := NewPeers(PeersConfig{Peers: []string{ts.URL}, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	st := NewTiered(Options{Peers: p})
	defer st.Close()
	if val, ok := st.Get(context.Background(), key); ok {
		t.Fatalf("unchecksummed peer response was accepted: %q", val)
	}
	if _, ok := st.GetLocal(context.Background(), key); ok {
		t.Error("unchecksummed peer response reached the local tiers")
	}
	if s := p.Stats(); s.Errors != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v, want the missing header counted as an error", s)
	}
}

// TestPeersDownDegradesToMiss: an unreachable peer backs off and the lookup
// degrades to a miss; within the backoff window the peer is not re-probed.
func TestPeersDownDegradesToMiss(t *testing.T) {
	ts := httptest.NewServer(peerHandler(nil))
	ts.Close() // listener gone: every dial fails

	p, err := NewPeers(PeersConfig{Peers: []string{ts.URL}, Backoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("%032x", 7)
	if _, ok := p.Get(context.Background(), key); ok {
		t.Fatal("down peer reported a hit")
	}
	// Second lookup: the peer is cooling down, so no second dial is counted.
	if _, ok := p.Get(context.Background(), key); ok {
		t.Fatal("down peer reported a hit")
	}
	st := p.Stats()
	if st.Errors != 1 {
		t.Errorf("errors = %d, want exactly 1 (backoff suppressed the re-probe)", st.Errors)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
}

// TestPeersConfigValidation: empty lists and non-http bases are rejected;
// duplicates and trailing slashes are normalised away.
func TestPeersConfigValidation(t *testing.T) {
	if _, err := NewPeers(PeersConfig{}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewPeers(PeersConfig{Peers: []string{"10.0.0.2:8080"}}); err == nil {
		t.Error("schemeless peer accepted")
	}
	p, err := NewPeers(PeersConfig{Peers: []string{"http://a:1/", "http://a:1", " http://a:1 "}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.peers) != 1 || p.peers[0].base != "http://a:1" {
		t.Errorf("peer normalisation: %+v", p.peers)
	}
}

// FuzzPeerResponse holds Peers.Get to its contract against one sibling that
// answers with the status, X-Soter-Sum header and body of the fuzz input: it
// never panics; it hits only on a 200 whose sum matches a body within
// maxPeerEntry, and then returns exactly that body; a 404 is a miss that is
// not an error; any other response is a miss counted in Stats().Errors; and
// the outcome is deterministic. Each Get runs on a fresh tier, since a
// failure backs the peer off for the next lookup.
func FuzzPeerResponse(f *testing.F) {
	val := []byte(`{"metrics":{"crashed":false}}`)
	f.Add(http.StatusOK, Sum(val), val)
	f.Add(http.StatusOK, Sum([]byte("what was stored")), []byte("what arrived"))
	f.Add(http.StatusOK, "", val)
	f.Add(http.StatusNotFound, "", []byte("404 page not found\n"))
	f.Add(http.StatusInternalServerError, Sum(val), val)

	type response struct {
		status int
		sum    string
		body   []byte
	}
	var mu sync.Mutex
	var current response
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resp := current
		mu.Unlock()
		if resp.sum != "" {
			w.Header().Set(SumHeader, resp.sum)
		}
		w.WriteHeader(resp.status)
		w.Write(resp.body)
	}))
	f.Cleanup(ts.Close)
	key := fmt.Sprintf("%032x", 7)

	get := func(t *testing.T) ([]byte, bool, TierStats) {
		p, err := NewPeers(PeersConfig{Peers: []string{ts.URL}, Client: ts.Client()})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := p.Get(context.Background(), key)
		return got, ok, p.Stats()
	}
	f.Fuzz(func(t *testing.T, status int, sum string, body []byte) {
		// Final statuses only (a 1xx is informational, and net/http refuses
		// codes outside 100–999), and a sum the header carries verbatim:
		// visible ASCII, no surrounding space to trim.
		if status < 200 || status > 599 {
			return
		}
		for _, c := range []byte(sum) {
			if c <= ' ' || c > '~' {
				return
			}
		}
		mu.Lock()
		current = response{status: status, sum: sum, body: body}
		mu.Unlock()

		got, ok, st := get(t)
		again, againOK, againSt := get(t)
		if ok != againOK || !bytes.Equal(got, again) || st != againSt {
			t.Fatalf("not deterministic: %q, %v, %+v then %q, %v, %+v", got, ok, st, again, againOK, againSt)
		}
		switch {
		case status == http.StatusOK && sum == Sum(body) && len(body) <= maxPeerEntry:
			if !ok || !bytes.Equal(got, body) || st != (TierStats{Hits: 1}) {
				t.Fatalf("valid entry: Get = %q, %v, %+v; want the body as a hit", got, ok, st)
			}
		case status == http.StatusNotFound:
			if ok || st != (TierStats{Misses: 1}) {
				t.Fatalf("404: Get = %q, %v, %+v; want a miss without an error", got, ok, st)
			}
		default:
			if ok || st != (TierStats{Misses: 1, Errors: 1}) {
				t.Fatalf("status %d, sum %q: Get = %q, %v, %+v; want a miss counted as an error", status, sum, got, ok, st)
			}
		}
	})
}
