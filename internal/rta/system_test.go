package rta

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/pubsub"
)

func mkModule(t *testing.T, name, topicPrefix string) *Module {
	t.Helper()
	d := Decl{
		Name: name,
		AC: mkNode(t, name+".ac", 10*time.Millisecond,
			[]pubsub.TopicName{pubsub.TopicName(topicPrefix + "/in")},
			[]pubsub.TopicName{pubsub.TopicName(topicPrefix + "/out")}),
		SC: mkNode(t, name+".sc", 10*time.Millisecond,
			[]pubsub.TopicName{pubsub.TopicName(topicPrefix + "/in")},
			[]pubsub.TopicName{pubsub.TopicName(topicPrefix + "/out")}),
		Delta:     100 * time.Millisecond,
		TTF2Delta: constPred(false),
		InSafer:   constPred(true),
	}
	m, err := NewModule(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewSystemComposition(t *testing.T) {
	m1 := mkModule(t, "m1", "a")
	m2 := mkModule(t, "m2", "b")
	app := mkNode(t, "app", 100*time.Millisecond,
		[]pubsub.TopicName{"a/out", "env/wind"}, []pubsub.TopicName{"app/target"})
	sys, err := NewSystem([]*Module{m1, m2}, []*node.Node{app})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}

	// env/wind is produced by no node; the system still declares it.
	topics := sys.Topics()
	wantTopics := []pubsub.TopicName{"a/in", "a/out", "app/target", "b/in", "b/out", "env/wind"}
	if !reflect.DeepEqual(topics, wantTopics) {
		t.Errorf("Topics = %v, want %v", topics, wantTopics)
	}

	names := sys.NodeNames()
	want := []string{"app", "m1.ac", "m1.dm", "m1.sc", "m2.ac", "m2.dm", "m2.sc"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("NodeNames = %v", names)
	}

	if m, isAC, ok := sys.ControllerOf("m1.ac"); !ok || !isAC || m.Name() != "m1" {
		t.Errorf("ControllerOf(m1.ac) = %v %v %v", m, isAC, ok)
	}

	if m, ok := sys.IsDM("m1.dm"); !ok || m.Name() != "m1" {
		t.Errorf("IsDM(m1.dm) = %v %v", m, ok)
	}
	if _, ok := sys.IsDM("app"); ok {
		t.Error("app is not a DM")
	}
	if m, isAC, ok := sys.ControllerOf("m2.sc"); !ok || isAC || m.Name() != "m2" {
		t.Errorf("ControllerOf(m2.sc) = %v %v %v", m, isAC, ok)
	}
	if _, _, ok := sys.ControllerOf("app"); ok {
		t.Error("app is not a controller")
	}
}

func TestNewSystemRejectsOverlap(t *testing.T) {
	t.Run("duplicate module", func(t *testing.T) {
		m := mkModule(t, "m", "a")
		if _, err := NewSystem([]*Module{m, m}, nil); !errors.Is(err, ErrNotComposable) {
			t.Errorf("error = %v", err)
		}
	})
	t.Run("output overlap between modules", func(t *testing.T) {
		m1 := mkModule(t, "m1", "same")
		m2 := mkModule(t, "m2", "same")
		if _, err := NewSystem([]*Module{m1, m2}, nil); !errors.Is(err, ErrNotComposable) {
			t.Errorf("error = %v", err)
		}
	})
	t.Run("output overlap with plain node", func(t *testing.T) {
		m := mkModule(t, "m", "a")
		rogue := mkNode(t, "rogue", time.Second, nil, []pubsub.TopicName{"a/out"})
		if _, err := NewSystem([]*Module{m}, []*node.Node{rogue}); !errors.Is(err, ErrNotComposable) {
			t.Errorf("error = %v", err)
		}
	})
	t.Run("node name overlap", func(t *testing.T) {
		m := mkModule(t, "m", "a")
		clash := mkNode(t, "m.ac", time.Second, nil, []pubsub.TopicName{"other"})
		if _, err := NewSystem([]*Module{m}, []*node.Node{clash}); !errors.Is(err, ErrNotComposable) {
			t.Errorf("error = %v", err)
		}
	})
	t.Run("nil module", func(t *testing.T) {
		if _, err := NewSystem([]*Module{nil}, nil); !errors.Is(err, ErrNotComposable) {
			t.Errorf("error = %v", err)
		}
	})
	t.Run("nil node", func(t *testing.T) {
		if _, err := NewSystem(nil, []*node.Node{nil}); !errors.Is(err, ErrNotComposable) {
			t.Errorf("error = %v", err)
		}
	})
}

func TestVerifyAll(t *testing.T) {
	m1 := mkModule(t, "m1", "a")
	m2 := mkModule(t, "m2", "b")
	sys, err := NewSystem([]*Module{m1, m2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	certs := map[string]Certificate{"m1": fakeCert{}, "m2": fakeCert{}}
	if err := sys.VerifyAll(certs); err != nil {
		t.Errorf("VerifyAll = %v", err)
	}
	// Theorem 4.1 requires every module well-formed: a missing certificate
	// is an error.
	delete(certs, "m2")
	if err := sys.VerifyAll(certs); !errors.Is(err, ErrNotWellFormed) {
		t.Errorf("VerifyAll missing cert = %v", err)
	}
}
