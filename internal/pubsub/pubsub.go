// Package pubsub implements the publish-subscribe communication substrate of
// the SOTER programming model (Section II-B, III-A of the paper). A topic is
// a (name, value) pair; nodes communicate by publishing on and subscribing to
// message topics. Following the paper's simplified presentation, the Store
// models the globally visible value of each topic.
//
// Topic names are interned: every Store assigns each declared topic a dense
// TopicID at construction. The executor (Figure 11) resolves every node's
// inputs and outputs to IDs once, then reads inputs with ReadInto and writes
// outputs with SetID, so a node firing indexes slices instead of allocating
// and hashing map keys for the store. Get and Set take a topic name instead,
// for code that does not cache IDs, such as the examples' environment
// models.
package pubsub

import (
	"fmt"
	"slices"
)

// TopicName is the unique name e ∈ T of a topic.
type TopicName string

// TopicID is the dense index a Store assigns to a declared topic.
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

// Store holds the globally visible value of every declared topic
// (Topics ∈ T → V in the operational semantics, Figure 11), backed by a
// dense slice indexed by TopicID. Store is not safe for concurrent use; the
// discrete-event executor is single-threaded, and the fleet engine gives
// every run its own Store.
type Store struct {
	ids    map[TopicName]TopicID
	names  []TopicName // index = TopicID, sorted
	values []Value
}

// NewStore creates a store with the given topics at their default values.
// Duplicate topic declarations are an error.
func NewStore(topics ...Topic) (*Store, error) {
	s := &Store{
		ids:    make(map[TopicName]TopicID, len(topics)),
		names:  make([]TopicName, len(topics)),
		values: make([]Value, len(topics)),
	}
	for i, t := range topics {
		s.names[i] = t.Name
	}
	slices.Sort(s.names)
	for i, n := range s.names {
		if n == "" {
			return nil, fmt.Errorf("topic with empty name")
		}
		if i > 0 && n == s.names[i-1] {
			return nil, fmt.Errorf("duplicate topic %q", n)
		}
		s.ids[n] = TopicID(i)
	}
	for _, t := range topics {
		s.values[s.ids[t.Name]] = t.Default
	}
	return s, nil
}

// ID resolves a declared topic name to its dense ID.
func (s *Store) ID(name TopicName) (TopicID, error) {
	id, ok := s.ids[name]
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

// ReadInto fills dst with the values of the given pre-resolved topic IDs.
// Refilling the same map with the same keys performs no allocation, which is
// what the executor's per-firing input reads rely on. Keys of dst outside
// ids (say, one a node added to its input valuation) are removed: with
// distinct ids, only such a key can leave len(dst) ≠ len(ids) once every ID
// is assigned, so dst is cleared and refilled only then.
func (s *Store) ReadInto(ids []TopicID, dst Valuation) {
	for _, id := range ids {
		dst[s.names[id]] = s.values[id]
	}
	if len(dst) != len(ids) {
		clear(dst)
		for _, id := range ids {
			dst[s.names[id]] = s.values[id]
		}
	}
}
