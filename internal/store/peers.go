package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Peer-tier bounds and defaults.
const (
	// peerTimeout bounds one fetch attempt against one peer.
	peerTimeout = 2 * time.Second
	// peerProbes bounds how many peers one Get consults, in rendezvous
	// order.
	peerProbes = 3
	// DefaultPeerBackoff is the base cooldown after a peer fails; it doubles
	// per consecutive failure up to maxPeerBackoff.
	DefaultPeerBackoff = time.Second
	maxPeerBackoff     = time.Minute
	// maxPeerEntry bounds a fetched entry; a peer response larger than this
	// is treated as an error, not buffered without bound.
	maxPeerEntry = 64 << 20
	// SumHeader carries the hex SHA-256 of the entry bytes on the peer wire,
	// so a garbled response is rejected before it enters the local tiers.
	SumHeader = "X-Soter-Sum"
)

// PeersConfig configures a peer tier.
type PeersConfig struct {
	// Peers lists the sibling soter-serve processes' base URLs (e.g.
	// "http://10.0.0.2:8080"). The local process itself must not be listed —
	// its results are already in the local tiers.
	Peers []string
	// Backoff is the base cooldown after a failed peer (DefaultPeerBackoff
	// when zero).
	Backoff time.Duration
	// Client is the HTTP client to fetch with (http.DefaultClient when nil).
	Client *http.Client
}

// Peers is tier 2: fetch-through to sibling processes over GET /store/{key}.
// For each key the peers are probed in rendezvous-hash order — a
// deterministic, per-key shuffle every process computes identically, so
// lookups for one fingerprint converge on the same peers first and the
// keyspace spreads evenly with no coordination. The tier is read-only
// (Put is a no-op): each process persists what it computes, siblings pull it
// on demand, and determinism makes any copy as good as any other. A failing
// peer is backed off exponentially and the lookup degrades to the remaining
// peers — or to a miss, which the caller answers by simulating locally.
type Peers struct {
	peers   []*peer
	client  *http.Client
	backoff time.Duration

	mu     sync.Mutex
	hits   int64
	misses int64
	errors int64
}

// peer is one sibling process plus its failure state.
type peer struct {
	base string

	mu        sync.Mutex
	failures  int
	downUntil time.Time
}

// NewPeers builds a peer tier over the configured sibling list.
func NewPeers(cfg PeersConfig) (*Peers, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("store: peer tier needs at least one peer URL")
	}
	p := &Peers{
		client:  cfg.Client,
		backoff: cfg.Backoff,
	}
	if p.client == nil {
		p.client = http.DefaultClient
	}
	if p.backoff <= 0 {
		p.backoff = DefaultPeerBackoff
	}
	seen := make(map[string]bool, len(cfg.Peers))
	for _, raw := range cfg.Peers {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" || seen[base] {
			continue
		}
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			return nil, fmt.Errorf("store: peer %q: want an http(s) base URL", raw)
		}
		seen[base] = true
		p.peers = append(p.peers, &peer{base: base})
	}
	if len(p.peers) == 0 {
		return nil, fmt.Errorf("store: peer tier needs at least one peer URL")
	}
	return p, nil
}

// rendezvous orders the peers for key by highest-random-weight hashing:
// score(peer, key) = SHA-256(peer || key) taken as a big-endian uint64,
// sorted descending. Every process computes the identical order, so the
// first probe for a key lands on the same peer cluster-wide.
func (p *Peers) rendezvous(key string) []*peer {
	type scored struct {
		p     *peer
		score uint64
	}
	order := make([]scored, len(p.peers))
	for i, pr := range p.peers {
		h := sha256.New()
		io.WriteString(h, pr.base)
		io.WriteString(h, "\x00")
		io.WriteString(h, key)
		order[i] = scored{p: pr, score: binary.BigEndian.Uint64(h.Sum(nil)[:8])}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].p.base < order[j].p.base
	})
	out := make([]*peer, len(order))
	for i, s := range order {
		out[i] = s.p
	}
	return out
}

// Get probes up to peerProbes peers in rendezvous order. Every failure backs
// the peer off; every outcome degrades gracefully — the worst case is a miss
// and a local simulation, never an error surfaced to the job.
func (p *Peers) Get(ctx context.Context, key string) ([]byte, bool) {
	if !ValidKey(key) {
		p.count(&p.misses)
		return nil, false
	}
	probes := 0
	for _, pr := range p.rendezvous(key) {
		if probes >= peerProbes || ctx.Err() != nil {
			break
		}
		if pr.coolingDown() {
			continue
		}
		probes++
		val, found, err := p.fetch(ctx, pr, key)
		if err != nil {
			pr.fail(p.backoff)
			p.count(&p.errors)
			continue
		}
		pr.ok()
		if found {
			p.count(&p.hits)
			return val, true
		}
	}
	p.count(&p.misses)
	return nil, false
}

// fetch performs one GET /store/{key} against one peer. found is false on a
// clean 404; any other failure — transport error, bad status, a missing or
// mismatched checksum, oversized body — is an error that backs the peer off.
func (p *Peers) fetch(ctx context.Context, pr *peer, key string) (val []byte, found bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pr.base+"/store/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("peer %s: status %d", pr.base, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntry+1))
	if err != nil {
		return nil, false, err
	}
	if len(body) > maxPeerEntry {
		return nil, false, fmt.Errorf("peer %s: entry exceeds %d bytes", pr.base, maxPeerEntry)
	}
	sum := resp.Header.Get(SumHeader)
	if sum == "" {
		return nil, false, fmt.Errorf("peer %s: no %s header for %s", pr.base, SumHeader, key)
	}
	if sum != Sum(body) {
		return nil, false, fmt.Errorf("peer %s: checksum mismatch for %s", pr.base, key)
	}
	return body, true, nil
}

// coolingDown reports whether the peer is inside its failure backoff window.
func (pr *peer) coolingDown() bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return time.Now().Before(pr.downUntil)
}

// fail records a failure and extends the backoff exponentially.
func (pr *peer) fail(base time.Duration) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	d := base << min(pr.failures, 6)
	if d > maxPeerBackoff {
		d = maxPeerBackoff
	}
	pr.failures++
	pr.downUntil = time.Now().Add(d)
}

// ok resets the peer's failure state after a successful exchange.
func (pr *peer) ok() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.failures = 0
	pr.downUntil = time.Time{}
}

// count bumps one counter under the tier lock.
func (p *Peers) count(c *int64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (p *Peers) Stats() TierStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return TierStats{Hits: p.hits, Misses: p.misses, Errors: p.errors}
}
