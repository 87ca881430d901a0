// Package pubsub implements the publish-subscribe communication substrate of
// the SOTER programming model (Section II-B, III-A of the paper). A topic is
// a (name, value) pair; nodes communicate by publishing on and subscribing to
// message topics. Following the paper's simplified presentation, the Store
// models the globally visible value of each topic.
//
// Topic names are interned: every Store assigns each declared topic a dense
// TopicID at construction. The executor resolves every node's inputs and
// outputs to IDs once, then reads inputs with ReadInto and writes outputs
// with SetID, so a node firing indexes slices instead of allocating and
// hashing map keys for the store. The Interner is immutable after
// construction and therefore safe to share between any number of concurrent
// readers — the fleet engine relies on this when it runs many executors in
// parallel.
package pubsub

import (
	"fmt"
	"slices"
)

// TopicName is the unique name e ∈ T of a topic.
type TopicName string

// TopicID is the dense index a Store's Interner assigns to a declared topic.
// IDs are contiguous, start at 0, and follow the sorted order of the topic
// names, so they are deterministic for a given topic set.
type TopicID int

// Value is the value v ∈ V carried by a topic. Values must be treated as
// immutable once published: publishers hand off ownership.
type Value any

// Topic declares a communication channel with its default (initial) value.
type Topic struct {
	Name    TopicName
	Default Value
}

// Valuation maps a set of topic names to their values (Vals(X) in the paper).
type Valuation map[TopicName]Value

// Clone returns a shallow copy of the valuation.
func (v Valuation) Clone() Valuation {
	return v.cloneInto(make(Valuation, len(v)))
}

// cloneInto copies the valuation into dst, clearing dst first, and returns
// dst. Reusing a destination across calls avoids the per-call map allocation
// of Clone: refilling a map with the same keys reuses its buckets.
func (v Valuation) cloneInto(dst Valuation) Valuation {
	clear(dst)
	for k, val := range v {
		dst[k] = val
	}
	return dst
}

// Names returns the sorted topic names present in the valuation.
func (v Valuation) Names() []TopicName {
	names := make([]TopicName, 0, len(v))
	for k := range v {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// Interner maps topic names to dense TopicIDs and back. It is built once per
// Store and never mutated afterwards, so lookups need no synchronisation.
type Interner struct {
	ids   map[TopicName]TopicID
	names []TopicName // index = TopicID, sorted
}

// newInterner assigns dense IDs to the given names in sorted order. Names
// must be non-empty and unique.
func newInterner(names []TopicName) (*Interner, error) {
	sorted := make([]TopicName, len(names))
	copy(sorted, names)
	slices.Sort(sorted)
	in := &Interner{
		ids:   make(map[TopicName]TopicID, len(sorted)),
		names: sorted,
	}
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("topic with empty name")
		}
		if i > 0 && n == sorted[i-1] {
			return nil, fmt.Errorf("duplicate topic %q", n)
		}
		in.ids[n] = TopicID(i)
	}
	return in, nil
}

// Lookup returns the ID of a declared topic name.
func (in *Interner) Lookup(name TopicName) (TopicID, bool) {
	id, ok := in.ids[name]
	return id, ok
}

// Name returns the topic name of a dense ID. It panics on an out-of-range ID,
// which is always a programming error (IDs only come from Lookup).
func (in *Interner) Name(id TopicID) TopicName { return in.names[id] }

// Len returns the number of interned topics.
func (in *Interner) Len() int { return len(in.names) }

// Store holds the globally visible value of every declared topic
// (Topics ∈ T → V in the operational semantics, Figure 11), backed by a
// dense slice indexed by TopicID. Store is not safe for concurrent use; the
// discrete-event executor is single-threaded, and the fleet engine gives
// every run its own Store.
type Store struct {
	interner *Interner
	values   []Value
}

// NewStore creates a store with the given topics at their default values.
// Duplicate topic declarations are an error.
func NewStore(topics ...Topic) (*Store, error) {
	names := make([]TopicName, len(topics))
	for i, t := range topics {
		names[i] = t.Name
	}
	interner, err := newInterner(names)
	if err != nil {
		return nil, err
	}
	s := &Store{interner: interner, values: make([]Value, interner.Len())}
	for _, t := range topics {
		id, _ := interner.Lookup(t.Name)
		s.values[id] = t.Default
	}
	return s, nil
}

// Interner returns the store's immutable name↔ID mapping.
func (s *Store) Interner() *Interner { return s.interner }

// Has reports whether the topic is declared.
func (s *Store) Has(name TopicName) bool {
	_, ok := s.interner.Lookup(name)
	return ok
}

// ID resolves a declared topic name to its dense ID.
func (s *Store) ID(name TopicName) (TopicID, error) {
	id, ok := s.interner.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("undeclared topic %q", name)
	}
	return id, nil
}

// IDs resolves a set of topic names to their dense IDs. Callers cache the
// result (the executor does so per node) and use GetID/SetID/ReadInto on
// the hot path.
func (s *Store) IDs(names []TopicName) ([]TopicID, error) {
	out := make([]TopicID, len(names))
	for i, n := range names {
		id, err := s.ID(n)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

// Get returns the current value of the topic.
func (s *Store) Get(name TopicName) (Value, error) {
	id, err := s.ID(name)
	if err != nil {
		return nil, err
	}
	return s.values[id], nil
}

// GetID returns the current value of the topic with the given dense ID.
func (s *Store) GetID(id TopicID) Value { return s.values[id] }

// Set updates the value of a declared topic.
func (s *Store) Set(name TopicName, v Value) error {
	id, err := s.ID(name)
	if err != nil {
		return err
	}
	s.values[id] = v
	return nil
}

// SetID updates the value of the topic with the given dense ID.
func (s *Store) SetID(id TopicID, v Value) { s.values[id] = v }

// Read returns the valuation of the given topic names (Topics[X]).
func (s *Store) Read(names []TopicName) (Valuation, error) {
	out := make(Valuation, len(names))
	for _, n := range names {
		v, err := s.Get(n)
		if err != nil {
			return nil, err
		}
		out[n] = v
	}
	return out, nil
}

// ReadInto fills dst with the values of the given pre-resolved topic IDs.
// Refilling the same map with the same keys performs no allocation, which is
// what the executor's per-firing input reads rely on. Keys of dst outside
// ids (say, one a node added to its input valuation) are removed: with
// distinct ids, only such a key can leave len(dst) ≠ len(ids) once every ID
// is assigned, so dst is cleared and refilled only then.
func (s *Store) ReadInto(ids []TopicID, dst Valuation) {
	for _, id := range ids {
		dst[s.interner.names[id]] = s.values[id]
	}
	if len(dst) != len(ids) {
		clear(dst)
		for _, id := range ids {
			dst[s.interner.names[id]] = s.values[id]
		}
	}
}

// Names returns the sorted names of all declared topics.
func (s *Store) Names() []TopicName {
	names := make([]TopicName, len(s.interner.names))
	copy(names, s.interner.names)
	return names
}
