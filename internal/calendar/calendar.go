// Package calendar implements the timeout-based discrete-event scheduling of
// the SOTER operational semantics (Section III-A and IV; Dutertre & Sorea's
// calendar automata [18]). Each periodic node contributes a time-table
// C = {(N, t0), (N, t1), ...} with t_{i+1} - t_i = δ(N); the calendar of a
// system is the union of its nodes' time-tables, and the executor advances
// the current time ct to the earliest pending entry (rule
// DISCRETE-TIME-PROGRESS-STEP in Figure 11).
package calendar

import (
	"fmt"
	"slices"
	"time"
)

// Schedule is the periodic time-table of one node: the node fires at
// phase, phase+period, phase+2*period, ...
type Schedule struct {
	Period time.Duration
	Phase  time.Duration
}

// Validate checks the schedule is well formed.
func (s Schedule) Validate() error {
	if s.Period <= 0 {
		return fmt.Errorf("period %v must be positive", s.Period)
	}
	if s.Phase < 0 {
		return fmt.Errorf("phase %v must be non-negative", s.Phase)
	}
	return nil
}

// FiresAt reports whether the schedule has an entry exactly at time t.
func (s Schedule) FiresAt(t time.Duration) bool {
	if t < s.Phase {
		return false
	}
	return (t-s.Phase)%s.Period == 0
}

// NextAfter returns the earliest firing time strictly greater than t.
func (s Schedule) NextAfter(t time.Duration) time.Duration {
	if t < s.Phase {
		return s.Phase
	}
	k := (t - s.Phase) / s.Period
	next := s.Phase + (k+1)*s.Period
	return next
}

// Calendar is the merged time-table CS of a system: a mapping from node name
// to its periodic schedule.
type Calendar struct {
	scheds map[string]Schedule
	names  []string // sorted, for deterministic iteration
	// byName is the schedule list aligned with names, so the per-instant
	// scans in PeekNext/FiringAt skip the map lookups.
	byName []Schedule
}

// New creates an empty calendar.
func New() *Calendar {
	return &Calendar{scheds: make(map[string]Schedule)}
}

// Add registers the schedule of a node. Adding the same node twice is an
// error: the nodes of an RTA system are disjoint.
func (c *Calendar) Add(nodeName string, s Schedule) error {
	if nodeName == "" {
		return fmt.Errorf("empty node name")
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("node %q: %w", nodeName, err)
	}
	if _, dup := c.scheds[nodeName]; dup {
		return fmt.Errorf("node %q already scheduled", nodeName)
	}
	c.scheds[nodeName] = s
	i, _ := slices.BinarySearch(c.names, nodeName)
	c.names = slices.Insert(c.names, i, nodeName)
	c.byName = slices.Insert(c.byName, i, s)
	return nil
}

// Len returns the number of scheduled nodes.
func (c *Calendar) Len() int { return len(c.scheds) }

// Schedule returns the schedule of a node.
func (c *Calendar) Schedule(nodeName string) (Schedule, bool) {
	s, ok := c.scheds[nodeName]
	return s, ok
}

// Names returns the sorted names of all scheduled nodes.
func (c *Calendar) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// FiringAt returns the sorted names of nodes whose time-table contains an
// entry exactly at time t (the FN' = {n | (n, ct') ∈ CS} of rule dt3).
func (c *Calendar) FiringAt(t time.Duration) []string {
	return c.AppendFiringAt(t, nil)
}

// AppendFiringAt appends the sorted names of nodes firing exactly at t to
// dst and returns it — the allocation-free form of FiringAt for callers that
// reuse a buffer across instants (the executor's time-progress loop).
func (c *Calendar) AppendFiringAt(t time.Duration, dst []string) []string {
	for i, s := range c.byName {
		if s.FiresAt(t) {
			dst = append(dst, c.names[i])
		}
	}
	return dst
}

// PeekNext returns the earliest time strictly after ct at which any node
// fires (rules dt2, dt3; FiringAt gives the set firing then); ok is false
// when the calendar is empty. It does not materialize the firing set, so run
// loops that only need to know whether — not what — anything fires before a
// deadline check it allocation-free.
func (c *Calendar) PeekNext(ct time.Duration) (next time.Duration, ok bool) {
	if len(c.byName) == 0 {
		return 0, false
	}
	for i, s := range c.byName {
		t := s.NextAfter(ct)
		if i == 0 || t < next {
			next = t
		}
	}
	return next, true
}
