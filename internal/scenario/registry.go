package scenario

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// registry is the package-level named-scenario table. Guarded by a mutex so
// tests and applications can register concurrently with fleet workers
// resolving names.
var registry = struct {
	sync.RWMutex
	specs map[string]Spec
}{specs: make(map[string]Spec)}

// Register validates the Spec and adds it to the registry. Registering a
// second Spec under an existing name is an error.
func Register(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("scenario %q already registered", s.Name)
	}
	registry.specs[s.Name] = s
	return nil
}

// MustRegister is Register, panicking on error — for package-init catalogs.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get returns the named Spec. The Targets slice is copied, so callers can
// tweak the returned Spec freely without corrupting the registry.
func Get(name string) (Spec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[name]
	s.Targets = slices.Clone(s.Targets)
	return s, ok
}

// Resolve turns a cell named from outside the process — a registry name and
// a Delta layered over it — into the validated Spec it denotes. It is the
// one way in for every such surface: soter-serve's /jobs, /certify and
// /falsify, the falsify corpus and soter-sim.
func Resolve(name string, d Delta) (Spec, error) {
	if name == "" {
		return Spec{}, errors.New("no scenario name")
	}
	base, ok := Get(name)
	if !ok {
		return Spec{}, fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	s, err := d.Apply(base)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario %q: %w", name, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MustGet is Get, panicking on a missing name — for experiment code whose
// base scenarios are registered by this package's own catalog.
func MustGet(name string) Spec {
	s, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("scenario %q not registered", name))
	}
	return s
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return slices.Sorted(maps.Keys(registry.specs))
}

// All returns the registered Specs, sorted by name.
func All() []Spec {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Spec, 0, len(registry.specs))
	for _, name := range slices.Sorted(maps.Keys(registry.specs)) {
		s := registry.specs[name]
		s.Targets = slices.Clone(s.Targets)
		out = append(out, s)
	}
	return out
}
