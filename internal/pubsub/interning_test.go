package pubsub

import (
	"reflect"
	"sync"
	"testing"
)

func TestStoreIDsDenseSorted(t *testing.T) {
	s, err := NewStore(Topic{Name: "zeta", Default: 26}, Topic{Name: "alpha", Default: 1}, Topic{Name: "mid", Default: 13})
	if err != nil {
		t.Fatal(err)
	}
	// IDs are dense and follow sorted name order.
	defaults := []int{1, 13, 26}
	for want, name := range []TopicName{"alpha", "mid", "zeta"} {
		id, err := s.ID(name)
		if err != nil || id != TopicID(want) {
			t.Errorf("ID(%q) = %v, %v; want %d", name, id, err, want)
		}
		if got := s.GetID(id); got.(int) != defaults[want] {
			t.Errorf("GetID(%d) = %v, want %d", id, got, defaults[want])
		}
	}
	if _, err := s.ID("nope"); err == nil {
		t.Error("ID of undeclared topic succeeded")
	}
	if _, err := s.IDs([]TopicName{"alpha", "nope"}); err == nil {
		t.Error("IDs with undeclared topic should fail")
	}
}

func TestStoreIDAccessors(t *testing.T) {
	s, _ := NewStore(Topic{Name: "a", Default: 1}, Topic{Name: "b", Default: 2}, Topic{Name: "c", Default: 3})
	ids, err := s.IDs([]TopicName{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.GetID(ids[0]); got.(int) != 3 {
		t.Errorf("GetID(c) = %v", got)
	}
	s.SetID(ids[1], 10)
	if v, _ := s.Get("a"); v.(int) != 10 {
		t.Errorf("Get after SetID = %v", v)
	}
}

func TestStoreReadIntoReusesBuffer(t *testing.T) {
	s, _ := NewStore(Topic{Name: "a", Default: 1}, Topic{Name: "b", Default: 2}, Topic{Name: "c", Default: 3})
	ids, _ := s.IDs([]TopicName{"a", "c"})
	dst := make(Valuation, len(ids))
	// Leftovers from a previous firing must be cleared.
	dst["stale"] = 99
	s.ReadInto(ids, dst)
	if !reflect.DeepEqual(dst, Valuation{"a": 1, "c": 3}) {
		t.Fatalf("ReadInto = %v", dst)
	}
	// The executor refills the same buffer every firing: steady-state reads
	// must not allocate.
	allocs := testing.AllocsPerRun(200, func() {
		s.ReadInto(ids, dst)
	})
	if allocs != 0 {
		t.Errorf("ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestStoreConcurrentReaders checks the read-only paths (name lookups,
// dense reads) are safe for any number of concurrent readers.
func TestStoreConcurrentReaders(t *testing.T) {
	s, _ := NewStore(Topic{Name: "a", Default: 1}, Topic{Name: "b", Default: 2}, Topic{Name: "c", Default: 3})
	ids, _ := s.IDs([]TopicName{"a", "b", "c"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(Valuation, len(ids))
			for i := 0; i < 300; i++ {
				s.ReadInto(ids, dst)
				if dst["a"].(int)+dst["b"].(int)+dst["c"].(int) != 6 {
					t.Error("inconsistent read")
					return
				}
				if _, err := s.Get("b"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoresIsolated runs writers against per-goroutine stores built from
// the same topic declarations: the per-run isolation the fleet engine's
// workers depend on (no shared mutable state between stores).
func TestStoresIsolated(t *testing.T) {
	topics := []Topic{{Name: "x", Default: 0}, {Name: "y", Default: 0}}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := NewStore(topics...)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				if err := s.Set("x", w*10000+i); err != nil {
					t.Error(err)
					return
				}
				if v, _ := s.Get("x"); v.(int) != w*10000+i {
					t.Errorf("worker %d read foreign value %v", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkStoreReadInto(b *testing.B) {
	s, _ := NewStore(Topic{Name: "a", Default: 1}, Topic{Name: "b", Default: 2},
		Topic{Name: "c", Default: 3}, Topic{Name: "d", Default: 4})
	ids, _ := s.IDs([]TopicName{"a", "b", "c", "d"})
	dst := make(Valuation, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReadInto(ids, dst)
	}
}
