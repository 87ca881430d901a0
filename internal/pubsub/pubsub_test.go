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
	if !s.Has("pos") || s.Has("nope") {
		t.Error("Has is wrong")
	}
}

func TestStoreReadWrite(t *testing.T) {
	s, _ := NewStore(Topic{Name: "a", Default: 1}, Topic{Name: "b", Default: 2}, Topic{Name: "c", Default: 3})
	val, err := s.Read([]TopicName{"a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(val, Valuation{"a": 1, "c": 3}) {
		t.Errorf("Read = %v", val)
	}
	if _, err := s.Read([]TopicName{"a", "zzz"}); err == nil {
		t.Error("expected error reading undeclared topic")
	}
	ids, _ := s.IDs([]TopicName{"a", "b"})
	s.SetID(ids[0], 10)
	s.SetID(ids[1], 20)
	all, err := s.Read(s.Names())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, Valuation{"a": 10, "b": 20, "c": 3}) {
		t.Errorf("after SetID, Read = %v", all)
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s, _ := NewStore(Topic{Name: "zeta"}, Topic{Name: "alpha"}, Topic{Name: "mid"})
	got := s.Names()
	want := []TopicName{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v", got)
	}
}

func TestValuationClone(t *testing.T) {
	v := Valuation{"a": 1, "b": 2}
	c := v.Clone()
	c["a"] = 99
	if v["a"].(int) != 1 {
		t.Error("Clone shares storage with the original")
	}
	names := v.Names()
	if !reflect.DeepEqual(names, []TopicName{"a", "b"}) {
		t.Errorf("Names = %v", names)
	}
}
