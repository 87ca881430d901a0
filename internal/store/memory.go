package store

import (
	"container/list"
	"context"
	"sync"
)

// DefaultMemoryEntries bounds a Memory tier built with a non-positive
// capacity.
const DefaultMemoryEntries = 4096

// Memory is tier 0: an LRU-bounded in-process map from mission fingerprints
// to canonical result bytes — the serving layer's original result cache,
// now the hot tier of the store. Because a mission is fully deterministic
// per (spec, seed), the bytes stored under a key are the bytes any fresh run
// of that key would produce. Values are stored and returned as opaque bytes;
// callers must not mutate a returned slice. Safe for concurrent use.
type Memory struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// memoryEntry is the list payload: the key rides along so eviction can delete
// the map entry without a reverse lookup.
type memoryEntry struct {
	key string
	val []byte
}

// NewMemory builds a memory tier bounded at capacity entries
// (DefaultMemoryEntries when capacity is not positive).
func NewMemory(capacity int) *Memory {
	if capacity <= 0 {
		capacity = DefaultMemoryEntries
	}
	return &Memory{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the bytes stored under key and marks the entry most recently
// used. Every call counts as a hit or a miss.
func (m *Memory) Get(_ context.Context, key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(el)
	return el.Value.(*memoryEntry).val, true
}

// Put stores val under key, evicting the least recently used entry when the
// bound is exceeded. Storing an existing key refreshes its value and recency.
func (m *Memory) Put(_ context.Context, key string, val []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		el.Value.(*memoryEntry).val = val
		m.order.MoveToFront(el)
		return
	}
	m.items[key] = m.order.PushFront(&memoryEntry{key: key, val: val})
	if m.order.Len() > m.capacity {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.items, oldest.Value.(*memoryEntry).key)
		m.evictions++
	}
}

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() TierStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return TierStats{
		Entries:   m.order.Len(),
		Capacity:  m.capacity,
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
	}
}
