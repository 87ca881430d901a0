package pubsub

import (
	"reflect"
	"testing"
)

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(Topic{Name: ""}); err == nil {
		t.Error("expected error for empty topic name")
	}
	if _, err := NewStore(Topic{Name: "a"}, Topic{Name: "a"}); err == nil {
		t.Error("expected error for duplicate topic")
	}
}

func TestStoreGetSet(t *testing.T) {
	s, err := NewStore(Topic{Name: "pos", Default: 1.5}, Topic{Name: "cmd"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("pos")
	if err != nil || v.(float64) != 1.5 {
		t.Errorf("Get default = %v, %v", v, err)
	}
	v, err = s.Get("cmd")
	if err != nil || v != nil {
		t.Errorf("Get zero default = %v, %v", v, err)
	}
	if err := s.Set("pos", 2.5); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("pos")
	if v.(float64) != 2.5 {
		t.Errorf("Get after Set = %v", v)
	}
	if _, err := s.Get("nope"); err == nil {
		t.Error("expected error for undeclared topic")
	}
	if err := s.Set("nope", 1); err == nil {
		t.Error("expected error setting undeclared topic")
	}
}

func TestStoreReadWrite(t *testing.T) {
	s, _ := NewStore(Topic{Name: "a", Default: 1}, Topic{Name: "b", Default: 2}, Topic{Name: "c", Default: 3})
	ids, err := s.IDs([]TopicName{"a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	val := make(Valuation, len(ids))
	s.ReadInto(ids, val)
	if !reflect.DeepEqual(val, Valuation{"a": 1, "c": 3}) {
		t.Errorf("ReadInto = %v", val)
	}
	if _, err := s.IDs([]TopicName{"a", "zzz"}); err == nil {
		t.Error("expected error resolving undeclared topic")
	}
	all, _ := s.IDs([]TopicName{"a", "b", "c"})
	s.SetID(all[0], 10)
	s.SetID(all[1], 20)
	val = make(Valuation, len(all))
	s.ReadInto(all, val)
	if !reflect.DeepEqual(val, Valuation{"a": 10, "b": 20, "c": 3}) {
		t.Errorf("after SetID, ReadInto = %v", val)
	}
}

// TestStoreNamesSorted: IDs follow the sorted order of the topic names, not
// the declaration order.
func TestStoreNamesSorted(t *testing.T) {
	s, _ := NewStore(Topic{Name: "zeta"}, Topic{Name: "alpha"}, Topic{Name: "mid"})
	got, err := s.IDs([]TopicName{"alpha", "mid", "zeta"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []TopicID{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
}
