package rta

import (
	"errors"
	"fmt"

	"repro/internal/node"
	"repro/internal/pubsub"
)

// System is an RTA system: a set of composable RTA modules (Section IV),
// optionally together with plain (unprotected) nodes such as application
// logic or state-estimator adapters. Composability requires:
//
//  1. the nodes of all modules are pairwise disjoint, and
//  2. the outputs of all modules (and plain nodes) are pairwise disjoint.
//
// There are no constraints on inputs, matching I/O Automata and Reactive
// Modules style composition. Theorem 4.1: if every module is well-formed,
// the system satisfies the conjunction of the module invariants.
type System struct {
	modules []*Module

	// coordinated maps a module name to the modules forced to SC when it
	// disengages (Section VII coordinated switching).
	coordinated map[string][]string
	byName      map[string]*node.Node
	modOf       map[string]*Module // DM name -> module
	order       []string           // all node names, sorted
}

// Composition errors.
var (
	ErrNotComposable = errors.New("modules are not composable")
)

// NewSystem composes modules and plain nodes into an RTA system, enforcing
// the composability conditions.
func NewSystem(modules []*Module, plain []*node.Node) (*System, error) {
	s := &System{
		byName: make(map[string]*node.Node),
		modOf:  make(map[string]*Module),
	}
	outputOwner := make(map[pubsub.TopicName]string)

	addNode := func(n *node.Node, owner string) error {
		if _, dup := s.byName[n.Name()]; dup {
			return fmt.Errorf("%w: duplicate node %q", ErrNotComposable, n.Name())
		}
		s.byName[n.Name()] = n
		s.order = append(s.order, n.Name())
		return nil
	}
	claimOutputs := func(owner string, topics []pubsub.TopicName) error {
		for _, t := range topics {
			if prev, dup := outputOwner[t]; dup {
				return fmt.Errorf("%w: output topic %q claimed by both %q and %q", ErrNotComposable, t, prev, owner)
			}
			outputOwner[t] = owner
		}
		return nil
	}

	seenModule := make(map[string]bool, len(modules))
	for _, m := range modules {
		if m == nil {
			return nil, fmt.Errorf("%w: nil module", ErrNotComposable)
		}
		if seenModule[m.Name()] {
			return nil, fmt.Errorf("%w: duplicate module %q", ErrNotComposable, m.Name())
		}
		seenModule[m.Name()] = true
		for _, n := range []*node.Node{m.AC(), m.SC(), m.DM()} {
			if err := addNode(n, m.Name()); err != nil {
				return nil, err
			}
		}
		// AC and SC intentionally share outputs within a module (P1b); the
		// module's output set is claimed once.
		if err := claimOutputs(m.Name(), m.Outputs()); err != nil {
			return nil, err
		}
		s.modOf[m.DM().Name()] = m
		s.modules = append(s.modules, m)
	}
	for _, n := range plain {
		if n == nil {
			return nil, fmt.Errorf("%w: nil node", ErrNotComposable)
		}
		if err := addNode(n, n.Name()); err != nil {
			return nil, err
		}
		if err := claimOutputs(n.Name(), n.Outputs()); err != nil {
			return nil, err
		}
	}
	sortStrings(s.order)
	return s, nil
}

// Modules returns the modules of the system.
func (s *System) Modules() []*Module {
	out := make([]*Module, len(s.modules))
	copy(out, s.modules)
	return out
}

// Node returns the node with the given name.
func (s *System) Node(name string) (*node.Node, bool) {
	n, ok := s.byName[name]
	return n, ok
}

// NodeNames returns the sorted names of every node in the system
// (Nodes(S) plus plain nodes).
func (s *System) NodeNames() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// IsDM reports whether the named node is a decision module, returning its
// module when so.
func (s *System) IsDM(name string) (*Module, bool) {
	m, ok := s.modOf[name]
	return m, ok
}

// ControllerOf returns, for an AC or SC node name, the module it belongs to
// and whether it is the AC.
func (s *System) ControllerOf(name string) (m *Module, isAC, ok bool) {
	for _, mod := range s.modules {
		if mod.AC().Name() == name {
			return mod, true, true
		}
		if mod.SC().Name() == name {
			return mod, false, true
		}
	}
	return nil, false, false
}

// Topics returns all topics referenced by the system (inputs ∪ outputs).
func (s *System) Topics() []pubsub.TopicName {
	seen := make(map[pubsub.TopicName]bool)
	var out []pubsub.TopicName
	for _, name := range s.order {
		n := s.byName[name]
		for _, t := range n.Inputs() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
		for _, t := range n.Outputs() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sortTopics(out)
	return out
}

// VerifyAll discharges the semantic obligations of every module with the
// per-module certificates; certs maps module name to certificate. Modules
// without an entry are an error: Theorem 4.1 requires every module to be
// well-formed.
func (s *System) VerifyAll(certs map[string]Certificate) error {
	for _, m := range s.modules {
		cert, ok := certs[m.Name()]
		if !ok {
			return fmt.Errorf("%w: module %q has no certificate", ErrNotWellFormed, m.Name())
		}
		if err := m.Verify(cert); err != nil {
			return err
		}
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortTopics(s []pubsub.TopicName) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AddCoordination registers a coordinated-switching link (the extension
// sketched in the paper's Section VII): whenever the trigger module's DM
// switches AC→SC, the forced module is immediately demoted to SC as well, so
// downstream modules can rely on the guarantee the partner's SC provides.
// The forced module returns to AC through its own DM logic (its φsafer
// check), unchanged. Both modules must belong to this system; self-links and
// duplicate links are rejected.
func (s *System) AddCoordination(trigger, forced string) error {
	if trigger == forced {
		return fmt.Errorf("coordination: module %q cannot coordinate with itself", trigger)
	}
	var trigMod, forcedMod *Module
	for _, m := range s.modules {
		if m.Name() == trigger {
			trigMod = m
		}
		if m.Name() == forced {
			forcedMod = m
		}
	}
	if trigMod == nil {
		return fmt.Errorf("coordination: unknown trigger module %q", trigger)
	}
	if forcedMod == nil {
		return fmt.Errorf("coordination: unknown forced module %q", forced)
	}
	for _, f := range s.coordinated[trigger] {
		if f == forced {
			return fmt.Errorf("coordination: %q → %q already registered", trigger, forced)
		}
	}
	if s.coordinated == nil {
		s.coordinated = make(map[string][]string)
	}
	s.coordinated[trigger] = append(s.coordinated[trigger], forced)
	return nil
}

// CoordinatedWith returns the modules forced to SC when the named module
// disengages.
func (s *System) CoordinatedWith(trigger string) []*Module {
	var out []*Module
	for _, name := range s.coordinated[trigger] {
		for _, m := range s.modules {
			if m.Name() == name {
				out = append(out, m)
			}
		}
	}
	return out
}
