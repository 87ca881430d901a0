package store

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

const testKey = "0123456789abcdef0123456789abcdef"

func TestValidKey(t *testing.T) {
	valid := []string{testKey, "00000000", "deadbeefcafe1234", Sum(nil)}
	for _, k := range valid {
		if !ValidKey(k) {
			t.Errorf("ValidKey(%q) = false, want true", k)
		}
	}
	invalid := []string{
		"", "0123456", // too short
		"0123456789ABCDEF", // uppercase
		"0123456/../4567",  // traversal attempt
		"tmp-0123456789",   // temp-file prefix
		Sum(nil) + "00",    // too long
	}
	for _, k := range invalid {
		if ValidKey(k) {
			t.Errorf("ValidKey(%q) = true, want false", k)
		}
	}
}

func TestTieredPromotion(t *testing.T) {
	ctx := context.Background()
	disk, err := NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(Options{Disk: disk})
	defer ts.Close()

	// Seed the disk tier directly: the entry is below the memory tier.
	want := []byte(`{"verdict":"pass"}`)
	disk.Put(ctx, testKey, want)

	got, ok := ts.Get(ctx, testKey)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after disk seed = %q, %v; want %q, true", got, ok, want)
	}
	st := ts.Stats()
	if st.Memory.Misses != 1 || st.Disk.Hits != 1 {
		t.Fatalf("first read: memory misses=%d disk hits=%d; want 1, 1", st.Memory.Misses, st.Disk.Hits)
	}

	// The hit was promoted: the second read stops at tier 0.
	if got, ok = ts.Get(ctx, testKey); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after promotion = %q, %v; want %q, true", got, ok, want)
	}
	st = ts.Stats()
	if st.Memory.Hits != 1 || st.Disk.Hits != 1 {
		t.Fatalf("second read: memory hits=%d disk hits=%d; want 1, 1", st.Memory.Hits, st.Disk.Hits)
	}
}

// TestAcquireCollapsesWaiters pins the singleflight contract: with a leader
// mid-fill, every concurrent Acquire of the same key blocks, then shares the
// leader's value — one fill, N collapsed requests, zero duplicate work.
func TestAcquireCollapsesWaiters(t *testing.T) {
	ctx := context.Background()
	ts := NewTiered(Options{})
	defer ts.Close()

	val, fill := ts.Acquire(ctx, testKey)
	if val != nil || fill == nil {
		t.Fatalf("first Acquire = %q, %v; want nil value and a leader fill", val, fill)
	}

	const waiters = 8
	results := make(chan []byte, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			v, f := ts.Acquire(ctx, testKey)
			if f != nil {
				f.Abort()
				results <- nil
				return
			}
			results <- v
		}()
	}
	started.Wait()
	// Waiters are blocked on the flight (or about to be); the leader fills.
	want := []byte("the one simulation")
	fill.Complete(ctx, want)

	for i := 0; i < waiters; i++ {
		if got := <-results; !bytes.Equal(got, want) {
			t.Fatalf("waiter %d got %q, want %q", i, got, want)
		}
	}
	st := ts.Stats()
	if st.Fills != 1 {
		t.Errorf("fills = %d, want 1", st.Fills)
	}
	// Waiters that raced in before the leader registered may have hit the
	// memory tier instead of the flight; both paths observe the same bytes.
	if st.Collapsed+st.Memory.Hits != waiters {
		t.Errorf("collapsed=%d + memory hits=%d, want %d total", st.Collapsed, st.Memory.Hits, waiters)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after completion, want 0", st.Inflight)
	}

	// The fill landed in the memory tier.
	if got, ok := ts.Get(ctx, testKey); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after fill = %q, %v; want %q, true", got, ok, want)
	}
}

// TestAcquireAbortElectsNewLeader pins the failure path: when the leader
// aborts, a waiter wakes, re-probes the tiers, and becomes the next leader
// rather than receiving the failure.
func TestAcquireAbortElectsNewLeader(t *testing.T) {
	ctx := context.Background()
	ts := NewTiered(Options{})
	defer ts.Close()

	_, leader := ts.Acquire(ctx, testKey)
	if leader == nil {
		t.Fatal("expected a leader fill")
	}

	type outcome struct {
		val  []byte
		fill *Fill
	}
	ch := make(chan outcome, 1)
	go func() {
		v, f := ts.Acquire(ctx, testKey)
		ch <- outcome{v, f}
	}()
	// Give the waiter time to join the flight, then fail the fill.
	time.Sleep(10 * time.Millisecond)
	leader.Abort()

	got := <-ch
	if got.fill == nil {
		t.Fatalf("after abort, waiter got value %q; want leadership", got.val)
	}
	want := []byte("second attempt")
	got.fill.Complete(ctx, want)

	st := ts.Stats()
	if st.Aborts != 1 || st.Fills != 1 {
		t.Errorf("aborts=%d fills=%d, want 1, 1", st.Aborts, st.Fills)
	}
	if v, ok := ts.Get(ctx, testKey); !ok || !bytes.Equal(v, want) {
		t.Fatalf("Get after retry = %q, %v; want %q, true", v, ok, want)
	}
}

func TestAcquireCancelledWaiter(t *testing.T) {
	ts := NewTiered(Options{})
	defer ts.Close()

	_, leader := ts.Acquire(context.Background(), testKey)
	if leader == nil {
		t.Fatal("expected a leader fill")
	}
	defer leader.Abort()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	val, fill := ts.Acquire(ctx, testKey)
	if val != nil || fill != nil {
		t.Fatalf("cancelled Acquire = %q, %v; want nil, nil", val, fill)
	}
}

// TestPutResolvesInflight: a plain Put of a key with an active flight hands
// the value to the waiters — and the displaced leader's own Complete is then
// a harmless no-op, not a double close.
func TestPutResolvesInflight(t *testing.T) {
	ctx := context.Background()
	ts := NewTiered(Options{})
	defer ts.Close()

	_, leader := ts.Acquire(ctx, testKey)
	if leader == nil {
		t.Fatal("expected a leader fill")
	}
	ch := make(chan []byte, 1)
	go func() {
		v, f := ts.Acquire(ctx, testKey)
		if f != nil {
			f.Abort()
			ch <- nil
			return
		}
		ch <- v
	}()
	time.Sleep(10 * time.Millisecond)

	want := []byte("filled out of band")
	ts.Put(ctx, testKey, want)
	if got := <-ch; !bytes.Equal(got, want) {
		t.Fatalf("waiter got %q, want %q", got, want)
	}
	// The old leader finishing late must not panic or clobber state.
	leader.Complete(ctx, []byte("late duplicate"))
	leader.Abort()
}

// TestCloseAbortsInflight: closing the store wakes every waiter, and a leader
// completing after Close must not panic.
func TestCloseAbortsInflight(t *testing.T) {
	ctx := context.Background()
	ts := NewTiered(Options{})

	_, leader := ts.Acquire(ctx, testKey)
	if leader == nil {
		t.Fatal("expected a leader fill")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The waiter wakes on Close, retries, and becomes leader of the
		// closed store; abort to let it exit.
		if _, f := ts.Acquire(ctx, testKey); f != nil {
			f.Abort()
		}
	}()
	time.Sleep(10 * time.Millisecond)

	if err := ts.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked after Close")
	}
	leader.Complete(ctx, []byte("after close")) // must not panic
}

// TestAcquireConcurrentOneFillPerKey hammers Acquire from many goroutines
// across several keys and checks the global invariant: every key is filled by
// exactly one leader, everyone observes the leader's bytes.
func TestAcquireConcurrentOneFillPerKey(t *testing.T) {
	ctx := context.Background()
	ts := NewTiered(Options{})
	defer ts.Close()

	const keys, per = 4, 16
	var fillCounts [keys]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("%032x", k+1)
		want := []byte(fmt.Sprintf("value-%d", k))
		for i := 0; i < per; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				val, fill := ts.Acquire(ctx, key)
				if fill != nil {
					mu.Lock()
					fillCounts[k]++
					mu.Unlock()
					fill.Complete(ctx, want)
					return
				}
				if !bytes.Equal(val, want) {
					t.Errorf("key %s: got %q, want %q", key, val, want)
				}
			}()
		}
	}
	wg.Wait()
	for k, n := range fillCounts {
		if n != 1 {
			t.Errorf("key %d filled %d times, want exactly 1", k, n)
		}
	}
	if st := ts.Stats(); st.Fills != keys {
		t.Errorf("fills = %d, want %d", st.Fills, keys)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := Payload{}
	p.Metrics.Duration = 5 * time.Second // every completed mission has flown
	p.Metrics.TargetsVisited = 42
	raw, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics.TargetsVisited != 42 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := DecodePayload([]byte("not json")); err == nil {
		t.Fatal("DecodePayload accepted garbage")
	}
}
