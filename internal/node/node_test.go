package node

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/pubsub"
)

func passthrough(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
	return st, nil, nil
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		node    string
		period  time.Duration
		in, out []pubsub.TopicName
		step    StepFunc
		wantErr bool
	}{
		{"valid", "n", time.Second, []pubsub.TopicName{"a"}, []pubsub.TopicName{"b"}, passthrough, false},
		{"empty name", "", time.Second, nil, nil, passthrough, true},
		{"nil step", "n", time.Second, nil, nil, nil, true},
		{"zero period", "n", 0, nil, nil, passthrough, true},
		{"input output overlap", "n", time.Second, []pubsub.TopicName{"a"}, []pubsub.TopicName{"a"}, passthrough, true},
		{"duplicate input", "n", time.Second, []pubsub.TopicName{"a", "a"}, nil, passthrough, true},
		{"duplicate output", "n", time.Second, nil, []pubsub.TopicName{"b", "b"}, passthrough, true},
		{"empty topic name", "n", time.Second, []pubsub.TopicName{""}, nil, passthrough, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.node, tt.period, tt.in, tt.out, tt.step)
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNodeAccessors(t *testing.T) {
	n, err := New("mp", 10*time.Millisecond,
		[]pubsub.TopicName{"zz", "aa"},
		[]pubsub.TopicName{"out"},
		passthrough,
		WithPhase(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "mp" {
		t.Errorf("Name = %q", n.Name())
	}
	if n.Period() != 10*time.Millisecond {
		t.Errorf("Period = %v", n.Period())
	}
	if n.Schedule().Phase != 5*time.Millisecond {
		t.Errorf("Phase = %v", n.Schedule().Phase)
	}
	// Inputs are returned sorted and copied.
	in := n.Inputs()
	if !reflect.DeepEqual(in, []pubsub.TopicName{"aa", "zz"}) {
		t.Errorf("Inputs = %v", in)
	}
	in[0] = "mutated"
	if got := n.Inputs()[0]; got != "aa" {
		t.Error("Inputs not copied")
	}
}

func TestNodeStepValidatesOutputs(t *testing.T) {
	n, err := New("n", time.Second, nil, []pubsub.TopicName{"ok"},
		func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
			return st, pubsub.Valuation{"rogue": 1}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Step(nil, nil); err == nil {
		t.Error("expected error for publishing on undeclared output topic")
	}
}

func TestNodeStepPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	n, _ := New("n", time.Second, nil, nil,
		func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
			return nil, nil, boom
		})
	if _, _, err := n.Step(nil, nil); !errors.Is(err, boom) {
		t.Errorf("Step error = %v, want wrapped boom", err)
	}
}

func TestNodeStatefulStep(t *testing.T) {
	n, _ := New("counter", time.Second, nil, []pubsub.TopicName{"count"},
		func(st State, in pubsub.Valuation) (State, pubsub.Valuation, error) {
			c, _ := st.(int)
			return c + 1, pubsub.Valuation{"count": c + 1}, nil
		},
		WithInit(func() State { return 0 }))
	st := n.InitState()
	var out pubsub.Valuation
	var err error
	for i := 1; i <= 3; i++ {
		st, out, err = n.Step(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out["count"].(int) != i {
			t.Errorf("step %d published %v", i, out["count"])
		}
	}
}

func TestSameOutputs(t *testing.T) {
	mk := func(outs ...pubsub.TopicName) *Node {
		return mustNew(t, "n"+string(outs[0]), time.Second, nil, outs, passthrough)
	}
	if !SameOutputs(mk("a", "b"), mk("b", "a")) {
		t.Error("same sets in different order should match")
	}
	if SameOutputs(mk("a"), mk("a", "b")) {
		t.Error("different sizes should not match")
	}
	if SameOutputs(mk("a"), mk("b")) {
		t.Error("different topics should not match")
	}
}

func TestDefaultInitStateIsNil(t *testing.T) {
	n := mustNew(t, "n", time.Second, nil, nil, passthrough)
	if n.InitState() != nil {
		t.Errorf("default init state = %v", n.InitState())
	}
}

// mustNew is New for declarations a test knows to be valid.
func mustNew(t *testing.T, name string, period time.Duration, inputs, outputs []pubsub.TopicName, step StepFunc, opts ...Option) *Node {
	t.Helper()
	n, err := New(name, period, inputs, outputs, step, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
