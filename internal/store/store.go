// Package store is the durable, sharded, deduplicated result store of the
// serving layer. Every SOTER mission is a pure function of (scenario.Spec,
// seed) — byte-identical on every run, machine-enforced by soter-vet — so a
// mission's verdict is a content-addressed artifact: the fingerprint
// scenario.Spec.Fingerprint(seed) names exactly one possible value. That
// determinism is what makes a multi-tier cache trivially safe: any replica of
// an entry equals every other, cache-fill races can only write identical
// bytes, and a remembered result is observationally indistinguishable from a
// fresh simulation.
//
// The store composes three concrete tiers, each an associative cache of
// canonical result bytes keyed by mission fingerprints and safe for
// concurrent use:
//
//	tier 0  Memory  in-process LRU — the hot set, zero IO
//	tier 1  Disk    fingerprint-sharded files — survives restarts
//	tier 2  Peers   rendezvous-ordered fetch-through from sibling
//	                soter-serve processes over GET /store/{key}
//
// A tier's Get takes a context because it may do IO (disk) or RPC (peers),
// and a tier that misses — for any reason, including cancellation or
// corruption — returns false rather than an error: the caller can always
// fall back to simulating. Peers is fetch-through only: results are durable
// where they were computed, and replication happens lazily, on read, which
// is safe because every copy of a key is byte-identical.
//
// Tiered walks them in order and promotes hits upward, so N processes with
// disk tiers and each other as peers form one logical cache. In front of the
// tiers sits a singleflight group (Acquire/Fill): concurrent requests for the
// same missing key elect exactly one leader to simulate while the rest wait
// and share its result — two users sweeping the same grid cell cost one
// simulation.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// TierStats is one tier's counter snapshot. Fields that do not apply to a
// tier (capacity for peers, bytes for memory) stay zero and are omitted on
// the wire.
type TierStats struct {
	// Entries and Capacity bound entry-counted tiers (memory).
	Entries  int `json:"entries,omitempty"`
	Capacity int `json:"capacity,omitempty"`
	// Bytes and MaxBytes bound byte-counted tiers (disk).
	Bytes    int64 `json:"bytes,omitempty"`
	MaxBytes int64 `json:"max_bytes,omitempty"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// Evictions counts entries dropped to honour the bound.
	Evictions int64 `json:"evictions,omitempty"`
	// Quarantined counts corrupt or truncated disk entries set aside on read.
	Quarantined int64 `json:"quarantined,omitempty"`
	// Errors counts IO/RPC failures that degraded to a miss.
	Errors int64 `json:"errors,omitempty"`
}

// Stats is the whole store's snapshot: one block per configured tier plus the
// singleflight counters — the /stats payload of the serving layer.
type Stats struct {
	Memory TierStats  `json:"memory"`
	Disk   *TierStats `json:"disk,omitempty"`
	Peers  *TierStats `json:"peers,omitempty"`
	// Fills counts leader fills completed through the singleflight group —
	// the number of fresh simulations the store absorbed.
	Fills int64 `json:"fills"`
	// Collapsed counts requests that waited on another caller's in-flight
	// fill and shared its result instead of simulating — the work dedup saved.
	Collapsed int64 `json:"collapsed"`
	// Aborts counts fills abandoned (failed or cancelled simulations);
	// waiters of an aborted fill retry and may lead their own.
	Aborts int64 `json:"aborts,omitempty"`
	// Repairs counts entries a tier served that failed to decode and were
	// overwritten with a fresh result (see Repair) — bad bytes from disk or
	// a peer.
	Repairs int64 `json:"repairs,omitempty"`
	// Inflight is the number of fills currently executing.
	Inflight int `json:"inflight,omitempty"`
}

// ValidKey reports whether key is a well-formed fingerprint: lowercase hex,
// 8–64 digits. The disk tier derives file paths from keys and the peer tier
// puts them in URLs, so anything else is rejected up front.
func ValidKey(key string) bool {
	if len(key) < 8 || len(key) > 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Sum returns the hex SHA-256 of val — the content checksum the disk tier
// embeds in every entry and the peer protocol carries in X-Soter-Sum, so a
// torn write or a garbled response is detected before it is served.
func Sum(val []byte) string {
	h := sha256.Sum256(val)
	return hex.EncodeToString(h[:])
}

// Options configures a Tiered store. Memory defaults to NewMemory(0); Disk
// and Peers are optional tiers.
type Options struct {
	Memory *Memory
	Disk   *Disk
	Peers  *Peers
}

// Tiered is the composed store: memory → disk → peers in probe order, hits
// promoted into every faster local tier, writes fanned to the local tiers
// (the peer tier is fetch-through only — each process persists what it
// computes, and siblings pull it on demand). A singleflight group in front
// collapses concurrent fills per key.
type Tiered struct {
	memory *Memory
	disk   *Disk
	peers  *Peers

	mu       sync.Mutex
	inflight map[string]*flight

	fills     int64
	collapsed int64
	aborts    int64
	repairs   int64
}

// flight is one in-progress fill. done is closed exactly once, after val/ok
// are set; waiters re-check the tiers when ok is false (the leader aborted).
type flight struct {
	once sync.Once
	done chan struct{}
	val  []byte
	ok   bool
}

// resolve publishes the flight's outcome exactly once — val/ok are written
// before done closes, so waiters observe them safely. Idempotent, because a
// store Close may race the leader's own Complete/Abort.
func (fl *flight) resolve(val []byte, ok bool) {
	fl.once.Do(func() {
		fl.val, fl.ok = val, ok
		close(fl.done)
	})
}

// NewTiered composes a store from the configured tiers.
func NewTiered(opts Options) *Tiered {
	if opts.Memory == nil {
		opts.Memory = NewMemory(0)
	}
	return &Tiered{
		memory:   opts.Memory,
		disk:     opts.Disk,
		peers:    opts.Peers,
		inflight: make(map[string]*flight),
	}
}

// Get walks the tiers in order and promotes a hit into every faster local
// tier, so the next request finds it at tier 0. It does not join or lead
// fills — see Acquire for the deduplicating path.
func (t *Tiered) Get(ctx context.Context, key string) ([]byte, bool) {
	if val, ok := t.memory.Get(ctx, key); ok {
		return val, true
	}
	if t.disk != nil {
		if val, ok := t.disk.Get(ctx, key); ok {
			t.memory.Put(ctx, key, val)
			return val, true
		}
	}
	if t.peers != nil {
		if val, ok := t.peers.Get(ctx, key); ok {
			t.memory.Put(ctx, key, val)
			if t.disk != nil {
				t.disk.Put(ctx, key, val)
			}
			return val, true
		}
	}
	return nil, false
}

// GetLocal consults only the local tiers (memory, disk) — never the peers.
// It is what the GET /store/{key} endpoint serves, so a peer lookup can never
// recurse into further peer lookups.
func (t *Tiered) GetLocal(ctx context.Context, key string) ([]byte, bool) {
	if val, ok := t.memory.Get(ctx, key); ok {
		return val, true
	}
	if t.disk != nil {
		if val, ok := t.disk.Get(ctx, key); ok {
			t.memory.Put(ctx, key, val)
			return val, true
		}
	}
	return nil, false
}

// Put stores val in every local tier. Any concurrent fill of the same key is
// completed with val — deterministically safe, since every fill of a key can
// only ever produce the same bytes.
func (t *Tiered) Put(ctx context.Context, key string, val []byte) {
	t.putLocal(ctx, key, val)
	t.mu.Lock()
	fl, ok := t.inflight[key]
	if ok {
		delete(t.inflight, key)
	}
	t.mu.Unlock()
	if ok {
		fl.resolve(val, true)
	}
}

// Repair is Put for a key whose stored entry failed to decode: val, a fresh
// result, overwrites the entry in every local tier so none keeps serving it,
// and the overwrite is counted in Stats.Repairs.
func (t *Tiered) Repair(ctx context.Context, key string, val []byte) {
	t.Put(ctx, key, val)
	t.mu.Lock()
	t.repairs++
	t.mu.Unlock()
}

// putLocal fans val out to the local tiers.
func (t *Tiered) putLocal(ctx context.Context, key string, val []byte) {
	t.memory.Put(ctx, key, val)
	if t.disk != nil {
		t.disk.Put(ctx, key, val)
	}
}

// Fill is the leader token of one singleflight slot: the Acquire caller that
// received it owns the fill for its key and must end it with exactly one
// Complete or Abort — waiters on the same key block until then.
type Fill struct {
	t    *Tiered
	key  string
	fl   *flight
	once sync.Once
}

// Complete stores val through the local tiers and hands it to every waiter.
func (f *Fill) Complete(ctx context.Context, val []byte) {
	f.once.Do(func() {
		f.t.putLocal(ctx, f.key, val)
		f.t.mu.Lock()
		if f.t.inflight[f.key] == f.fl {
			delete(f.t.inflight, f.key)
		}
		f.t.fills++
		f.t.mu.Unlock()
		f.fl.resolve(val, true)
	})
}

// Abort abandons the fill (the simulation failed or was cancelled). Waiters
// wake, re-check the tiers and elect a new leader.
func (f *Fill) Abort() {
	f.once.Do(func() {
		f.t.mu.Lock()
		if f.t.inflight[f.key] == f.fl {
			delete(f.t.inflight, f.key)
		}
		f.t.aborts++
		f.t.mu.Unlock()
		f.fl.resolve(nil, false)
	})
}

// Acquire is the deduplicating read path. It resolves key to one of:
//
//   - (val, nil): the value — from a tier hit or by waiting out another
//     caller's in-flight fill (a collapsed request).
//   - (nil, fill): a miss with this caller elected leader. The caller must
//     compute the value and end the fill with Complete or Abort; concurrent
//     Acquires of the same key block on it meanwhile.
//   - (nil, nil): the context was cancelled while waiting. The caller may
//     compute without caching duties.
//
// The leader slot is registered before the tiers are probed, so a fill
// completing between a waiter's probe and its registration can never be
// missed — the waiter either sees the tiers' copy or joins the flight.
func (t *Tiered) Acquire(ctx context.Context, key string) ([]byte, *Fill) {
	for {
		t.mu.Lock()
		fl := t.inflight[key]
		if fl == nil {
			fl = &flight{done: make(chan struct{})}
			t.inflight[key] = fl
			t.mu.Unlock()
			if val, ok := t.Get(ctx, key); ok {
				// The tiers already had it: resolve our own slot with the
				// found value so anyone who joined meanwhile shares the hit.
				t.mu.Lock()
				if t.inflight[key] == fl {
					delete(t.inflight, key)
				}
				t.mu.Unlock()
				fl.resolve(val, true)
				return val, nil
			}
			return nil, &Fill{t: t, key: key, fl: fl}
		}
		t.mu.Unlock()
		select {
		case <-fl.done:
			if fl.ok {
				t.mu.Lock()
				t.collapsed++
				t.mu.Unlock()
				return fl.val, nil
			}
			// Aborted: retry — the tiers may have it by now, or we lead.
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// Stats snapshots every tier plus the singleflight counters.
func (t *Tiered) Stats() Stats {
	t.mu.Lock()
	st := Stats{
		Fills:     t.fills,
		Collapsed: t.collapsed,
		Aborts:    t.aborts,
		Repairs:   t.repairs,
		Inflight:  len(t.inflight),
	}
	t.mu.Unlock()
	st.Memory = t.memory.Stats()
	if t.disk != nil {
		ds := t.disk.Stats()
		st.Disk = &ds
	}
	if t.peers != nil {
		ps := t.peers.Stats()
		st.Peers = &ps
	}
	return st
}

// Close aborts in-flight fills and closes the disk tier, the only tier
// holding external resources.
func (t *Tiered) Close() error {
	t.mu.Lock()
	flights := make([]*flight, 0, len(t.inflight))
	for key, fl := range t.inflight {
		delete(t.inflight, key)
		flights = append(flights, fl)
	}
	t.mu.Unlock()
	for _, fl := range flights {
		fl.resolve(nil, false)
	}
	if t.disk != nil {
		return t.disk.Close()
	}
	return nil
}
